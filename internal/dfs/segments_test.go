package dfs

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzSegmentedFile: a file written as segments of one stride reads back
// exactly like the stride-0 file of the same records — through Size,
// Scan, View.Records on any range, View.MBBs and ScanMBB, Stats and the
// snapshot bytes — however the records are cut into segments, empty and
// one-record segments included. A segment that is not a whole number of
// records is an error that creates no file and charges nothing.
func FuzzSegmentedFile(f *testing.F) {
	var mbbs []byte
	for _, m := range testMBBs(7) {
		mbbs = AppendMBB(mbbs, m)
	}
	f.Add(uint8(MBBRecordBytes-1), mbbs, []byte{1, 1, 2, 0, 3}, uint16(2), uint16(6), false)
	f.Add(uint8(MBBRecordBytes-1), mbbs, []byte{}, uint16(0), uint16(7), false)
	f.Add(uint8(0), []byte{}, []byte{}, uint16(0), uint16(0), false)
	f.Add(uint8(2), []byte("abcdefghijklmnopqrst"), []byte{1, 1, 1, 1, 1, 1}, uint16(1), uint16(5), false)
	f.Add(uint8(4), []byte("abcdefghijklmnopqrst"), []byte{0, 2, 0, 1}, uint16(1), uint16(3), false)
	f.Add(uint8(MBBRecordBytes-1), mbbs, []byte{2, 2}, uint16(0), uint16(3), true)
	f.Fuzz(func(t *testing.T, strideSel uint8, data, cuts []byte, lo, hi uint16, torn bool) {
		stride := int(strideSel%64) + 1
		n := len(data) / stride
		records := make([][]byte, n)
		for i := range records {
			records[i] = data[i*stride : (i+1)*stride]
		}
		// The segmented file owns its bytes, so it gets a copy; each cut
		// byte is one segment of 0–5 records, the rest is the last one.
		owned := bytes.Clone(data[:n*stride])
		var segs [][]byte
		for _, c := range cuts {
			k := min(int(c%6), len(owned)/stride)
			segs = append(segs, owned[:k*stride:k*stride])
			owned = owned[k*stride:]
		}
		if len(owned) > 0 || len(segs) == 0 {
			segs = append(segs, owned)
		}

		got := New(64)
		if torn && stride > 1 {
			for i, seg := range segs {
				if len(seg) > 0 {
					segs[i] = seg[:len(seg)-1]
					if err := got.WriteSegments("f", Segments{Stride: stride, Segs: segs}); err == nil {
						t.Fatalf("a %d-byte segment at stride %d was written", len(seg)-1, stride)
					}
					if got.Exists("f") || got.Stats() != (Stats{}) {
						t.Fatalf("a failed write left a file or charged %+v", got.Stats())
					}
					return
				}
			}
		}
		want := New(64)
		if err := want.WriteFile("f", records); err != nil {
			t.Fatal(err)
		}
		if err := got.WriteSegments("f", Segments{Stride: stride, Segs: segs}); err != nil {
			t.Fatal(err)
		}

		wb, wn, _ := want.Size("f")
		gb, gn, err := got.Size("f")
		if err != nil || gb != wb || gn != wn {
			t.Fatalf("Size = (%d, %d, %v), want (%d, %d)", gb, gn, err, wb, wn)
		}
		if g, w := scanAll(t, got), scanAll(t, want); !reflect.DeepEqual(g, w) {
			t.Fatalf("Scan read %q, want %q", g, w)
		}
		wv, _ := want.Open("f")
		gv, err := got.Open("f")
		if err != nil || gv.Len() != n || gv.Bytes() != wv.Bytes() {
			t.Fatalf("Open: %d records, %d bytes, %v; want %d, %d", gv.Len(), gv.Bytes(), err, n, wv.Bytes())
		}
		rlo, rhi := int(lo)%(n+1), int(hi)%(n+1)
		if rlo > rhi {
			rlo, rhi = rhi, rlo
		}
		if g, w := viewRange(gv, rlo, rhi), viewRange(wv, rlo, rhi); !reflect.DeepEqual(g, w) {
			t.Fatalf("Records(%d, %d) read %q, want %q", rlo, rhi, g, w)
		}
		if g, w := viewRange(gv, rlo, n+1), viewRange(wv, rlo, n+1); !reflect.DeepEqual(g, w) {
			t.Fatalf("Records(%d, %d) past the end read %q, want %q", rlo, n+1, g, w)
		}
		if g, w := viewMBBs(gv, rlo, rhi), viewMBBs(wv, rlo, rhi); !reflect.DeepEqual(g, w) {
			t.Fatalf("MBBs(%d, %d) read %x, want %x", rlo, rhi, g, w)
		}
		if g, w := scanMBBs(got), scanMBBs(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("ScanMBB read %x, want %x", g, w)
		}
		if g, w := got.Stats(), want.Stats(); g != w {
			t.Fatalf("Stats = %+v, want %+v", g, w)
		}
		var gs, ws bytes.Buffer
		if err := got.WriteSnapshot(&gs); err != nil {
			t.Fatal(err)
		}
		if err := want.WriteSnapshot(&ws); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gs.Bytes(), ws.Bytes()) {
			t.Fatal("snapshot bytes differ from the stride-0 file's")
		}
	})
}

// scanAll copies every record Scan delivers.
func scanAll(t *testing.T, fs *FS) [][]byte {
	t.Helper()
	var recs [][]byte
	if err := fs.Scan("f", func(rec []byte) error {
		recs = append(recs, bytes.Clone(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// viewRange copies records [lo, hi) of v, or returns the error.
func viewRange(v *View, lo, hi int) any {
	var recs [][]byte
	if err := v.Records(lo, hi, func(rec []byte) error {
		recs = append(recs, bytes.Clone(rec))
		return nil
	}); err != nil {
		return err.Error()
	}
	return recs
}

// viewMBBs decodes records [lo, hi) of v, re-encoded so that rows
// compare by their bits (a NaN is not equal to itself), or returns the
// error.
func viewMBBs(v *View, lo, hi int) any {
	var rows []byte
	if err := v.MBBs(lo, hi, func(m MBB) error {
		rows = AppendMBB(rows, m)
		return nil
	}); err != nil {
		return err.Error()
	}
	return rows
}

// scanMBBs decodes the whole file as viewMBBs does, or returns the
// error.
func scanMBBs(fs *FS) any {
	var rows []byte
	if err := fs.ScanMBB("f", func(m MBB) error {
		rows = AppendMBB(rows, m)
		return nil
	}); err != nil {
		return err.Error()
	}
	return rows
}
