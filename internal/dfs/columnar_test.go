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

// TestColumnarBoxedEquivalence writes the same rows through the boxed
// and columnar writers on separate file systems and checks that Scan
// yields byte-identical records, ScanMBB yields identical rows, and
// every Stats counter matches exactly.
func TestColumnarBoxedEquivalence(t *testing.T) {
	rows := testMBBs(137)

	boxed := New(0)
	bw := boxed.Create("rel")
	for _, m := range rows {
		bw.Append(AppendMBB(nil, m))
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}

	col := New(0)
	cw := col.CreateMBB("rel")
	for _, m := range rows {
		cw.Append(m)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}

	if b, c := boxed.Stats(), col.Stats(); b != c {
		t.Errorf("write Stats differ: boxed %+v, columnar %+v", b, c)
	}

	scanAll := func(fs *FS) [][]byte {
		var out [][]byte
		if err := fs.Scan("rel", func(rec []byte) error {
			out = append(out, append([]byte(nil), rec...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	br, cr := scanAll(boxed), scanAll(col)
	if len(br) != len(cr) {
		t.Fatalf("Scan record counts differ: %d vs %d", len(br), len(cr))
	}
	for i := range br {
		if !bytes.Equal(br[i], cr[i]) {
			t.Fatalf("record %d differs between boxed and columnar Scan", i)
		}
	}

	mbbAll := func(fs *FS) []MBB {
		var out []MBB
		if err := fs.ScanMBB("rel", func(m MBB) error {
			out = append(out, m)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	bm, cm := mbbAll(boxed), mbbAll(col)
	if !reflect.DeepEqual(bm, rows) || !reflect.DeepEqual(cm, rows) {
		t.Fatal("ScanMBB rows differ from the written rows")
	}

	if b, c := boxed.Stats(), col.Stats(); b != c {
		t.Errorf("read Stats differ: boxed %+v, columnar %+v", b, c)
	} else if want := int64(len(rows)) * MBBRecordBytes * 2; b.BytesRead != want {
		t.Errorf("BytesRead = %d, want %d (Scan + ScanMBB)", b.BytesRead, want)
	}
}

// TestScanMBBBoxedErrors checks that a boxed file with a malformed
// record fails ScanMBB with a decode error.
func TestScanMBBBoxedErrors(t *testing.T) {
	fs := New(0)
	w := fs.Create("bad")
	w.Append([]byte("short"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.ScanMBB("bad", func(MBB) error { return nil }); err == nil {
		t.Fatal("ScanMBB on malformed boxed record should fail")
	}
	if err := fs.ScanMBB("missing", func(MBB) error { return nil }); err == nil {
		t.Fatal("ScanMBB on missing file should fail")
	}
}

// markSnapshot is a snapshot of one boxed MBB file whose only record
// carries the given mark byte.
func markSnapshot(t testing.TB, mark byte) []byte {
	t.Helper()
	rec := AppendMBB(nil, MBB{Slot: 1, ID: 7, X: 1, Y: 2, L: 3, B: 4})
	rec[MBBRecordBytes-1] = mark
	fs := New(0)
	if err := fs.WriteFile("rel", [][]byte{rec}); err != nil {
		t.Fatal(err)
	}
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

// TestMBBWriterDoubleClose mirrors the boxed writer's close contract.
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
// them), at stride 0 and at a positive stride alike.
func TestWriteSegmentsTransfersOwnership(t *testing.T) {
	for _, stride := range []int{0, 3} {
		fs := New(0)
		buf := []byte("abcdef")
		segs := Segments{Stride: stride, Segs: [][]byte{buf[:3], buf[3:]}}
		if err := fs.WriteSegments("a", segs); err != nil {
			t.Fatal(err)
		}
		buf[0] = 'X'
		var got []string
		fs.Scan("a", func(rec []byte) error {
			got = append(got, string(rec))
			return nil
		})
		if want := []string{"Xbc", "def"}; !reflect.DeepEqual(got, want) {
			t.Errorf("stride %d: records = %q, want %q (ownership transferred, no copy)", stride, got, want)
		}
		st := fs.Stats()
		if st.BytesWritten != 6 || st.RecordsWritten != 2 || st.FilesCreated != 1 {
			t.Errorf("stride %d: Stats = %+v, want 6 bytes / 2 records / 1 file written", stride, st)
		}
	}
}

// TestColumnarSnapshotRoundTrip snapshots a columnar file and checks it
// restores as a readable (boxed) file with identical records under both
// Scan and ScanMBB.
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
}

// TestColumnarWireFormat pins the exact byte layout of the one MBB
// codec, which snapshots and the spatial package's item records share.
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

// TestSizedWritersChargeAlike: writing segments changes how the host
// allocates, never what is charged or read back — and it, like a
// columnar writer's Close, hands its storage to the file uncopied.
func TestSizedWritersChargeAlike(t *testing.T) {
	rows := testMBBs(137)
	plain := New(0)
	pw := plain.CreateMBB("rel")
	for _, m := range rows {
		pw.Append(m)
	}
	pending := &pw.pending.xs[0]
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if &plain.files["rel"].cols.xs[0] != pending {
		t.Error("Close copied the pending planes into the empty file")
	}

	images := make([][]byte, len(rows))
	for i, m := range rows {
		images[i] = AppendMBB(nil, m)
	}
	var packed []byte
	for _, img := range images {
		packed = append(packed, img...)
	}
	one, all, strided := New(0), New(0), New(0)
	ow := one.Create("rel")
	for _, img := range images {
		ow.Append(img)
	}
	if err := ow.Close(); err != nil {
		t.Fatal(err)
	}
	if err := all.WriteSegments("rel", Segments{Segs: images}); err != nil {
		t.Fatal(err)
	}
	if &all.files["rel"].segs[0] != &images[0] {
		t.Error("WriteSegments copied the record table")
	}
	if err := strided.WriteSegments("rel", Segments{Stride: MBBRecordBytes, Segs: [][]byte{packed[:5*MBBRecordBytes], packed[5*MBBRecordBytes:]}}); err != nil {
		t.Fatal(err)
	}
	if &strided.files["rel"].segs[0][0] != &packed[0] {
		t.Error("WriteSegments copied a segment")
	}

	want := plain.Stats()
	for name, fs := range map[string]*FS{"Append": one, "WriteSegments": all, "WriteSegments/38": strided} {
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

// TestStageMBBSharesPlanes: staging planes charges what writing their
// rows through CreateMBB charges and reads the same rows back, every
// file staged from them shares them uncopied, and a file that is
// rewritten, deleted or snapshotted leaves the planes and the other
// files as they were.
func TestStageMBBSharesPlanes(t *testing.T) {
	rows := testMBBs(137)
	for i := range rows {
		rows[i].Slot, rows[i].Marked = 0, false // the form a relation is staged in
	}
	ids := make([]int32, len(rows))
	xs, ys, ls, bs := make([]float64, len(rows)), make([]float64, len(rows)), make([]float64, len(rows)), make([]float64, len(rows))
	for i, m := range rows {
		ids[i], xs[i], ys[i], ls[i], bs[i] = m.ID, m.X, m.Y, m.L, m.B
	}
	p := NewMBBPlanes(ids, xs, ys, ls, bs)

	written := New(0)
	w := written.CreateMBB("rel")
	for _, m := range rows {
		w.Append(m)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, b := New(0), New(0)
	for _, fs := range []*FS{a, b} {
		if err := fs.StageMBB("rel", p); err != nil {
			t.Fatal(err)
		}
		if got, want := fs.Stats(), written.Stats(); got != want {
			t.Errorf("staging charged %+v, writing the rows %+v", got, want)
		}
		if &fs.files["rel"].cols.xs[0] != &xs[0] {
			t.Error("StageMBB copied the planes")
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
	if err := b.StageMBB("rel", p); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&snap, 0)
	if err != nil {
		t.Fatal(err)
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
// deliver the same rows from either storage kind.
func TestViewChargesOnceAndRanges(t *testing.T) {
	rows := testMBBs(20)
	boxed, col := New(0), New(0)
	bw, cw := boxed.Create("rel"), col.CreateMBB("rel")
	for _, m := range rows {
		bw.Append(AppendMBB(nil, m))
		cw.Append(m)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	for name, fs := range map[string]*FS{"boxed": boxed, "columnar": col} {
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
	if _, err := col.Open("missing"); err == nil {
		t.Error("Open of a missing file succeeded")
	}
	var none *View
	if none.Len() != 0 || none.Bytes() != 0 || none.Records(0, 0, nil) != nil {
		t.Error("the nil View is not the empty input")
	}
}
