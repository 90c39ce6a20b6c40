package dfs

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// writeRecords writes records of one length to the named file as one
// segment, at stride 1 when there are none.
func writeRecords(t testing.TB, fs *FS, name string, records ...[]byte) {
	t.Helper()
	stride := 1
	if len(records) > 0 {
		stride = len(records[0])
	}
	if err := fs.WriteSegments(name, Segments{Stride: stride, Segs: [][]byte{bytes.Join(records, nil)}}); err != nil {
		t.Fatal(err)
	}
}

func TestCreateWriteScan(t *testing.T) {
	fs := New(0)
	rows := testMBBs(2)
	w := fs.CreateMBB("a")
	for _, m := range rows {
		w.Append(m)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	if err := fs.Scan("a", func(rec []byte) error {
		got = append(got, bytes.Clone(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := [][]byte{AppendMBB(nil, rows[0]), AppendMBB(nil, rows[1])}; !reflect.DeepEqual(got, want) {
		t.Errorf("Scan returned %x, want %x", got, want)
	}

	b, n, err := fs.Size("a")
	if err != nil || b != 2*MBBRecordBytes || n != 2 {
		t.Errorf("Size = (%d, %d, %v), want (%d, 2, nil)", b, n, err, 2*MBBRecordBytes)
	}

	st := fs.Stats()
	if st.BytesWritten != 2*MBBRecordBytes || st.RecordsWritten != 2 || st.BytesRead != 2*MBBRecordBytes || st.RecordsRead != 2 || st.FilesCreated != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

// TestViewRecordsRange: a View hands out any in-bounds range of a file
// of generic records and rejects the others.
func TestViewRecordsRange(t *testing.T) {
	fs := New(0)
	var records [][]byte
	for i := 0; i < 10; i++ {
		records = append(records, []byte{byte(i)})
	}
	writeRecords(t, fs, "f", records...)
	v, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := v.Records(3, 7, func(rec []byte) error {
		got = append(got, rec[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []byte{3, 4, 5, 6}) {
		t.Errorf("Records(3, 7) = %v", got)
	}
	for _, r := range [][2]int{{-1, 2}, {5, 11}, {7, 3}} {
		if err := v.Records(r[0], r[1], func([]byte) error { return nil }); err == nil {
			t.Errorf("range [%d,%d) of a 10-record file accepted", r[0], r[1])
		}
	}
}

func TestScanErrorPropagation(t *testing.T) {
	fs := New(0)
	writeRecords(t, fs, "f", []byte{1}, []byte{2})
	wantErr := fmt.Errorf("boom")
	count := 0
	err := fs.Scan("f", func([]byte) error {
		count++
		return wantErr
	})
	if err != wantErr || count != 1 {
		t.Errorf("err=%v count=%d, want early stop with boom", err, count)
	}
	if err := fs.Scan("nope", func([]byte) error { return nil }); err == nil {
		t.Error("scanning a missing file must fail")
	}
}

func TestDeleteAndList(t *testing.T) {
	fs := New(0)
	writeRecords(t, fs, "b")
	writeRecords(t, fs, "a")
	if got := fs.List(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("List = %v", got)
	}
	if !fs.Exists("a") || fs.Exists("c") {
		t.Error("Exists misbehaves")
	}
	if err := fs.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("a") {
		t.Error("a still exists after delete")
	}
	if err := fs.Delete("a"); err == nil {
		t.Error("double delete must fail")
	}
	st := fs.Stats()
	if st.FilesCreated != 2 || st.FilesDeleted != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

// TestCreateTruncates: writing a file again, or creating it for MBB
// rows, replaces what it held, and counts one file created.
func TestCreateTruncates(t *testing.T) {
	fs := New(0)
	writeRecords(t, fs, "f", []byte("old"))
	writeRecords(t, fs, "f", []byte("new"))
	var got []string
	fs.Scan("f", func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	})
	if !reflect.DeepEqual(got, []string{"new"}) {
		t.Errorf("after truncate, records = %v", got)
	}
	fs.CreateMBB("f")
	if _, n, err := fs.Size("f"); err != nil || n != 0 {
		t.Errorf("after CreateMBB, Size = %d records, %v; want an empty file", n, err)
	}
	// Re-creating the same name does not double-count file creation.
	if st := fs.Stats(); st.FilesCreated != 1 {
		t.Errorf("FilesCreated = %d, want 1", st.FilesCreated)
	}
}

func TestBlockAccounting(t *testing.T) {
	fs := New(10)
	writeRecords(t, fs, "f", make([]byte, 25))
	st := fs.Stats()
	if st.BlocksWritten != 3 { // ceil(25/10)
		t.Errorf("BlocksWritten = %d, want 3", st.BlocksWritten)
	}
	fs.Scan("f", func([]byte) error { return nil })
	if st := fs.Stats(); st.BlocksRead != 3 {
		t.Errorf("BlocksRead = %d, want 3", st.BlocksRead)
	}
}

// TestWriterMisuse: a stride below 1, or a segment that is not a whole
// number of records, fails the write, which creates no file and charges
// nothing.
func TestWriterMisuse(t *testing.T) {
	fs := New(0)
	for _, s := range []Segments{
		{Stride: 0},
		{Stride: 0, Segs: [][]byte{{1}}},
		{Stride: -3, Segs: [][]byte{{1, 2, 3}}},
		{Stride: 2, Segs: [][]byte{{1, 2}, {3}}},
	} {
		if err := fs.WriteSegments("f", s); err == nil {
			t.Errorf("WriteSegments(%+v) succeeded", s)
		}
	}
	if fs.Exists("f") || fs.Stats() != (Stats{}) {
		t.Errorf("failed writes left a file or charged %+v", fs.Stats())
	}
}

func TestConcurrentWritersAndReaders(t *testing.T) {
	fs := New(0)
	writeRecords(t, fs, "input", []byte("seed"))
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := fs.CreateMBB(fmt.Sprintf("out-%d", i))
			for j := 0; j < 100; j++ {
				w.Append(MBB{ID: int32(j)})
			}
			if err := w.Close(); err != nil {
				t.Error(err)
			}
			if err := fs.Scan("input", func([]byte) error { return nil }); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	st := fs.Stats()
	if st.RecordsWritten != n*100+1 {
		t.Errorf("RecordsWritten = %d, want %d", st.RecordsWritten, n*100+1)
	}
	if st.RecordsRead != n {
		t.Errorf("RecordsRead = %d, want %d", st.RecordsRead, n)
	}
}

// TestCloseRunsReleases: Close drops every file and runs each release
// OnClose registered once, in order; a second Close and a release
// registered after the first run nothing.
func TestCloseRunsReleases(t *testing.T) {
	fs := New(0)
	writeRecords(t, fs, "chk/a", []byte("x"))
	var ran []int
	fs.OnClose(func() { ran = append(ran, 1) })
	fs.OnClose(func() { ran = append(ran, 2) })
	fs.Close()
	fs.Close()
	fs.OnClose(func() { ran = append(ran, 3) })
	fs.Close()
	if len(ran) != 2 || ran[0] != 1 || ran[1] != 2 {
		t.Errorf("releases ran %v, want [1 2]", ran)
	}
	if fs.Exists("chk/a") || len(fs.List()) != 0 {
		t.Errorf("files left after Close: %v", fs.List())
	}
}
