package dfs

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestCreateWriteScan(t *testing.T) {
	fs := New(0)
	w := fs.Create("a")
	w.Append([]byte("hello"))
	w.Append([]byte("world!"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	if err := fs.Scan("a", func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[0], []byte("hello")) || !bytes.Equal(got[1], []byte("world!")) {
		t.Errorf("Scan returned %q", got)
	}

	b, n, err := fs.Size("a")
	if err != nil || b != 11 || n != 2 {
		t.Errorf("Size = (%d, %d, %v), want (11, 2, nil)", b, n, err)
	}

	st := fs.Stats()
	if st.BytesWritten != 11 || st.RecordsWritten != 2 || st.BytesRead != 11 || st.RecordsRead != 2 || st.FilesCreated != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestAppendCopiesBuffer(t *testing.T) {
	fs := New(0)
	w := fs.Create("a")
	buf := []byte("abc")
	w.Append(buf)
	buf[0] = 'X' // mutate after append; stored record must be unchanged
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Scan("a", func(rec []byte) error {
		if string(rec) != "abc" {
			t.Errorf("record = %q, want abc", rec)
		}
		return nil
	})
}

// TestViewRecordsRange: a View hands out any in-bounds range of a file
// of generic records and rejects the others.
func TestViewRecordsRange(t *testing.T) {
	fs := New(0)
	var records [][]byte
	for i := 0; i < 10; i++ {
		records = append(records, []byte{byte(i)})
	}
	if err := fs.WriteFile("f", records); err != nil {
		t.Fatal(err)
	}
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
	fs.WriteFile("f", [][]byte{{1}, {2}})
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
	fs.WriteFile("b", nil)
	fs.WriteFile("a", nil)
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

func TestCreateTruncates(t *testing.T) {
	fs := New(0)
	fs.WriteFile("f", [][]byte{[]byte("old")})
	fs.WriteFile("f", [][]byte{[]byte("new")})
	var got []string
	fs.Scan("f", func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	})
	if !reflect.DeepEqual(got, []string{"new"}) {
		t.Errorf("after truncate, records = %v", got)
	}
	// Re-creating the same name does not double-count file creation.
	if st := fs.Stats(); st.FilesCreated != 1 {
		t.Errorf("FilesCreated = %d, want 1", st.FilesCreated)
	}
}

func TestBlockAccounting(t *testing.T) {
	fs := New(10)
	rec := make([]byte, 25)
	fs.WriteFile("f", [][]byte{rec})
	st := fs.Stats()
	if st.BlocksWritten != 3 { // ceil(25/10)
		t.Errorf("BlocksWritten = %d, want 3", st.BlocksWritten)
	}
	fs.Scan("f", func([]byte) error { return nil })
	if st := fs.Stats(); st.BlocksRead != 3 {
		t.Errorf("BlocksRead = %d, want 3", st.BlocksRead)
	}
}

func TestWriterMisuse(t *testing.T) {
	fs := New(0)
	w := fs.Create("f")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Error("double close must fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("Append after Close must panic")
		}
	}()
	w.Append([]byte("x"))
}

func TestConcurrentWritersAndReaders(t *testing.T) {
	fs := New(0)
	fs.WriteFile("input", [][]byte{[]byte("seed")})
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := fs.Create(fmt.Sprintf("out-%d", i))
			for j := 0; j < 100; j++ {
				w.Append([]byte{byte(j)})
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
	if err := fs.WriteFile("chk/a", [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
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
