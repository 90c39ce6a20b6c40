package dfs

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// testMBBs synthesises n distinct MBB rows covering negative slots and
// coordinates, marked and unmarked.
func testMBBs(n int) []MBB {
	ms := make([]MBB, n)
	for i := range ms {
		ms[i] = MBB{
			Slot:   int8(i % 3),
			ID:     int32(i - n/2),
			X:      float64(i) * 1.5,
			Y:      -float64(i) * 0.25,
			L:      float64(i%7) + 0.125,
			B:      float64(i%5) + 0.0625,
			Marked: i%4 == 0,
		}
	}
	return ms
}

// mbbRecords encodes rows into one buffer of records.
func mbbRecords(rows []MBB) []byte {
	var buf []byte
	for _, m := range rows {
		buf = AppendMBB(buf, m)
	}
	return buf
}

// TestScanMBBErrors: a file of records that are not MBB records, or
// one that is missing, fails ScanMBB and View.MBBs.
func TestScanMBBErrors(t *testing.T) {
	fs := New(0)
	writeRecords(t, fs, "bad", []byte("short"))
	if err := fs.ScanMBB("bad", func(MBB) error { return nil }); err == nil {
		t.Fatal("ScanMBB of 5-byte records should fail")
	}
	v, err := fs.Open("bad")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.MBBs(0, 1, func(MBB) error { return nil }); err == nil {
		t.Fatal("View.MBBs of 5-byte records should fail")
	}
	if err := fs.ScanMBB("missing", func(MBB) error { return nil }); err == nil {
		t.Fatal("ScanMBB on missing file should fail")
	}
	if _, err := DecodeMBB(make([]byte, MBBRecordBytes+1)); err == nil {
		t.Fatal("DecodeMBB of a 39-byte record should fail")
	}
}

// markSnapshot is a snapshot of one MBB file whose only record carries
// the given mark byte.
func markSnapshot(t testing.TB, mark byte) []byte {
	t.Helper()
	rec := AppendMBB(nil, MBB{Slot: 1, ID: 7, X: 1, Y: 2, L: 3, B: 4})
	rec[MBBRecordBytes-1] = mark
	fs := New(0)
	writeRecords(t, fs, "rel", rec)
	var img bytes.Buffer
	if err := fs.WriteSnapshot(&img); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

// TestSnapshotMarkByteRejected: a restored MBB record whose mark byte is
// neither 0 nor 1 is one AppendMBB cannot have written, so ScanMBB and
// View.MBBs fail on it instead of reading it as unmarked.
func TestSnapshotMarkByteRejected(t *testing.T) {
	for _, mark := range []byte{0, 1, 2, 255} {
		fs, err := ReadSnapshot(bytes.NewReader(markSnapshot(t, mark)), 0)
		if err != nil {
			t.Fatal(err)
		}
		scanErr := fs.ScanMBB("rel", func(MBB) error { return nil })
		v, err := fs.Open("rel")
		if err != nil {
			t.Fatal(err)
		}
		viewErr := v.MBBs(0, v.Len(), func(MBB) error { return nil })
		if valid := mark <= 1; (scanErr == nil) != valid || (viewErr == nil) != valid {
			t.Errorf("mark byte %d: ScanMBB err = %v, View.MBBs err = %v; want errors only for a byte other than 0 or 1", mark, scanErr, viewErr)
		}
	}
}

// TestMBBWriterDoubleClose: a writer closes once and takes no row after.
func TestMBBWriterDoubleClose(t *testing.T) {
	fs := New(0)
	w := fs.CreateMBB("rel")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("second Close should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("Append after Close should panic")
		}
	}()
	w.Append(MBB{})
}

// TestWriteSegmentsTransfersOwnership checks WriteSegments' no-copy
// write: the file stores the exact buffers (mutations show through,
// proving no copy was taken — which is why callers must not reuse
// them).
func TestWriteSegmentsTransfersOwnership(t *testing.T) {
	fs := New(0)
	buf := []byte("abcdef")
	if err := fs.WriteSegments("a", Segments{Stride: 3, Segs: [][]byte{buf[:3], buf[3:]}}); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	var got []string
	fs.Scan("a", func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	})
	if want := []string{"Xbc", "def"}; !reflect.DeepEqual(got, want) {
		t.Errorf("records = %q, want %q (ownership transferred, no copy)", got, want)
	}
	st := fs.Stats()
	if st.BytesWritten != 6 || st.RecordsWritten != 2 || st.FilesCreated != 1 {
		t.Errorf("Stats = %+v, want 6 bytes / 2 records / 1 file written", st)
	}
}

// TestColumnarSnapshotRoundTrip snapshots an MBB file, the kind
// relations were once staged in as column planes, and checks it
// restores at its stride, with identical records under both Scan and
// ScanMBB.
func TestColumnarSnapshotRoundTrip(t *testing.T) {
	rows := testMBBs(23)
	fs := New(0)
	w := fs.CreateMBB("rel")
	for _, m := range rows {
		w.Append(m)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := fs.WriteSnapshot(&img); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&img, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []MBB
	if err := restored.ScanMBB("rel", func(m MBB) error {
		got = append(got, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatal("restored rows differ from the written rows")
	}
	b, n, err := restored.Size("rel")
	if err != nil || n != int64(len(rows)) || b != int64(len(rows))*MBBRecordBytes {
		t.Errorf("restored Size = (%d, %d, %v)", b, n, err)
	}
	if stride := restored.files["rel"].stride; stride != MBBRecordBytes {
		t.Errorf("restored at stride %d, want %d", stride, MBBRecordBytes)
	}
}

// TestColumnarWireFormat pins the exact byte layout of the one MBB
// codec, which staged relations, snapshots and the spatial package's
// item records share.
func TestColumnarWireFormat(t *testing.T) {
	m := MBB{Slot: 2, ID: -7, X: 1.5, Y: -2.25, L: 3, B: 0.125, Marked: true}
	rec := AppendMBB(nil, m)
	if len(rec) != MBBRecordBytes {
		t.Fatalf("record is %d bytes, want %d", len(rec), MBBRecordBytes)
	}
	back, err := DecodeMBB(rec)
	if err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Errorf("round-trip %+v -> %+v", m, back)
	}
	if rec[0] != 2 || rec[37] != 1 {
		t.Errorf("slot/marked bytes = %d/%d, want 2/1", rec[0], rec[37])
	}
	if got := fmt.Sprintf("%x", rec[1:5]); got != "f9ffffff" {
		t.Errorf("id bytes = %s, want f9ffffff (little-endian -7)", got)
	}
}

// TestSizedWritersChargeAlike: an MBBWriter and segments of any cut
// charge alike and read back the same rows, and each hands its storage
// to the file uncopied.
func TestSizedWritersChargeAlike(t *testing.T) {
	rows := testMBBs(137)
	plain := New(0)
	pw := plain.CreateMBB("rel")
	for _, m := range rows {
		pw.Append(m)
	}
	pending := &pw.pending[0]
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if &plain.files["rel"].segs[0][0] != pending {
		t.Error("Close copied the pending rows into the file")
	}

	packed := mbbRecords(rows)
	one, cut := New(0), New(0)
	if err := one.WriteSegments("rel", Segments{Stride: MBBRecordBytes, Segs: [][]byte{packed}}); err != nil {
		t.Fatal(err)
	}
	if err := cut.WriteSegments("rel", Segments{Stride: MBBRecordBytes, Segs: [][]byte{packed[:5*MBBRecordBytes], {}, packed[5*MBBRecordBytes:]}}); err != nil {
		t.Fatal(err)
	}
	if &cut.files["rel"].segs[0][0] != &packed[0] {
		t.Error("WriteSegments copied a segment")
	}

	want := plain.Stats()
	for name, fs := range map[string]*FS{"MBBWriter": plain, "one segment": one, "three segments": cut} {
		if got := fs.Stats(); got != want {
			t.Errorf("%s: write Stats %+v, want %+v", name, got, want)
		}
		var got []MBB
		if err := fs.ScanMBB("rel", func(m MBB) error { got = append(got, m); return nil }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rows) {
			t.Errorf("%s: rows read back differ from the rows written", name)
		}
	}
}

// TestSharedSegmentsStayPut: files on several file systems may share
// one segment, as every execution's staged relation shares its one
// buffer. Each charges a full write and reads the rows back, and a file
// that is rewritten, deleted or snapshotted leaves the buffer and the
// other files as they were.
func TestSharedSegmentsStayPut(t *testing.T) {
	rows := testMBBs(137)
	shared := mbbRecords(rows)
	kept := bytes.Clone(shared)

	written := New(0)
	w := written.CreateMBB("rel")
	for _, m := range rows {
		w.Append(m)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stage := func(fs *FS) {
		if err := fs.WriteSegments("rel", Segments{Stride: MBBRecordBytes, Segs: [][]byte{shared}}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := New(0), New(0)
	for _, fs := range []*FS{a, b} {
		stage(fs)
		if got, want := fs.Stats(), written.Stats(); got != want {
			t.Errorf("staging charged %+v, writing the rows %+v", got, want)
		}
	}

	var snap bytes.Buffer
	if err := a.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	rw := a.CreateMBB("rel")
	rw.Append(MBB{ID: -1, X: -1})
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("rel"); err != nil {
		t.Fatal(err)
	}
	stage(b)
	restored, err := ReadSnapshot(&snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shared, kept) {
		t.Fatal("the shared segment changed")
	}
	for name, fs := range map[string]*FS{"restaged": b, "restored": restored} {
		var got []MBB
		if err := fs.ScanMBB("rel", func(m MBB) error { got = append(got, m); return nil }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rows) {
			t.Errorf("%s: rows read back differ from the rows staged", name)
		}
	}
}

// TestViewChargesOnceAndRanges: Open charges exactly what a Scan does,
// whatever is read through the View afterwards, and both range forms
// deliver the same rows however the file's records are cut into
// segments.
func TestViewChargesOnceAndRanges(t *testing.T) {
	rows := testMBBs(20)
	whole, cut := New(0), New(0)
	w := whole.CreateMBB("rel")
	for _, m := range rows {
		w.Append(m)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	packed := mbbRecords(rows)
	var segs [][]byte
	for len(packed) > 0 {
		n := min(len(packed), 7*MBBRecordBytes)
		segs, packed = append(segs, packed[:n]), packed[n:]
	}
	if err := cut.WriteSegments("rel", Segments{Stride: MBBRecordBytes, Segs: segs}); err != nil {
		t.Fatal(err)
	}
	for name, fs := range map[string]*FS{"one segment": whole, "segments of 7": cut} {
		before := fs.Stats()
		v, err := fs.Open("rel")
		if err != nil {
			t.Fatal(err)
		}
		charged := fs.Stats()
		if d, want := charged.BytesRead-before.BytesRead, int64(len(rows))*MBBRecordBytes; d != want || v.Bytes() != want {
			t.Errorf("%s: Open charged %d bytes (view says %d), Scan charges %d", name, d, v.Bytes(), want)
		}
		if d := charged.RecordsRead - before.RecordsRead; d != int64(len(rows)) || v.Len() != len(rows) {
			t.Errorf("%s: Open charged %d records (view says %d), want %d", name, d, v.Len(), len(rows))
		}
		var viaMBB, viaRec []MBB
		for _, r := range [][2]int{{3, 9}, {0, 3}, {9, 20}, {5, 5}} {
			if err := v.MBBs(r[0], r[1], func(m MBB) error { viaMBB = append(viaMBB, m); return nil }); err != nil {
				t.Fatal(err)
			}
			if err := v.Records(r[0], r[1], func(rec []byte) error {
				m, err := DecodeMBB(rec)
				viaRec = append(viaRec, m)
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		want := append(append(append([]MBB{}, rows[3:9]...), rows[0:3]...), rows[9:20]...)
		if !reflect.DeepEqual(viaMBB, want) || !reflect.DeepEqual(viaRec, want) {
			t.Errorf("%s: view ranges delivered the wrong rows", name)
		}
		if fs.Stats() != charged {
			t.Errorf("%s: reading ranges of an open view charged again", name)
		}
		if err := v.MBBs(4, 21, func(MBB) error { return nil }); err == nil {
			t.Errorf("%s: out-of-bounds range accepted", name)
		}
	}
	if _, err := cut.Open("missing"); err == nil {
		t.Error("Open of a missing file succeeded")
	}
	var none *View
	if none.Len() != 0 || none.Bytes() != 0 || none.Records(0, 0, nil) != nil {
		t.Error("the nil View is not the empty input")
	}
}

// BenchmarkViewMBBs reads a 50,000-row relation whole through Open and
// View.MBBs, the read every map task of a join makes of its staged
// relations, and reports ns per row.
func BenchmarkViewMBBs(b *testing.B) {
	const n = 50_000
	fs := New(0)
	w := fs.CreateMBB("rel")
	for _, m := range testMBBs(n) {
		w.Append(m)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	var sum float64
	b.ResetTimer()
	for range b.N {
		v, err := fs.Open("rel")
		if err != nil {
			b.Fatal(err)
		}
		if err := v.MBBs(0, v.Len(), func(m MBB) error { sum += m.X; return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
	if sum == 0 {
		b.Fatal("read no rows")
	}
}
