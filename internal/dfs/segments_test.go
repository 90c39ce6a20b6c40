package dfs

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzSegmentedFile: a file written as segments of one stride reads back
// as exactly the records the test wrote — through Size, Scan,
// View.Records on any range, View.MBBs and ScanMBB, Stats and the
// snapshot bytes, built here from the documented format — however the
// records are cut into segments, empty and one-record segments
// included. A segment that is not a whole number of records is an
// error that creates no file and charges nothing.
func FuzzSegmentedFile(f *testing.F) {
	mbbs := mbbRecords(testMBBs(7))
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
		// The file owns its bytes, so it gets a copy; each cut byte is
		// one segment of 0–5 records, the rest is the last one.
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

		fs := New(64)
		if torn && stride > 1 {
			for i, seg := range segs {
				if len(seg) > 0 {
					segs[i] = seg[:len(seg)-1]
					if err := fs.WriteSegments("f", Segments{Stride: stride, Segs: segs}); err == nil {
						t.Fatalf("a %d-byte segment at stride %d was written", len(seg)-1, stride)
					}
					if fs.Exists("f") || fs.Stats() != (Stats{}) {
						t.Fatalf("a failed write left a file or charged %+v", fs.Stats())
					}
					return
				}
			}
		}
		if err := fs.WriteSegments("f", Segments{Stride: stride, Segs: segs}); err != nil {
			t.Fatal(err)
		}

		size := int64(n * stride)
		if b, m, err := fs.Size("f"); err != nil || b != size || m != int64(n) {
			t.Fatalf("Size = (%d, %d, %v), want (%d, %d)", b, m, err, size, n)
		}
		if got := scanAll(t, fs); !slices.EqualFunc(got, records, bytes.Equal) {
			t.Fatalf("Scan read %q, want %q", got, records)
		}
		v, err := fs.Open("f")
		if err != nil || v.Len() != n || v.Bytes() != size {
			t.Fatalf("Open: %d records, %d bytes, %v; want %d, %d", v.Len(), v.Bytes(), err, n, size)
		}
		rlo, rhi := int(lo)%(n+1), int(hi)%(n+1)
		if rlo > rhi {
			rlo, rhi = rhi, rlo
		}
		if got, ok := viewRange(v, rlo, rhi).([][]byte); !ok || !slices.EqualFunc(got, records[rlo:rhi], bytes.Equal) {
			t.Fatalf("Records(%d, %d) read %q, want %q", rlo, rhi, viewRange(v, rlo, rhi), records[rlo:rhi])
		}
		if _, ok := viewRange(v, rlo, n+1).(string); !ok {
			t.Fatalf("Records(%d, %d) past the end succeeded", rlo, n+1)
		}
		if got, want := viewMBBs(v, rlo, rhi), wantMBBs(records[rlo:rhi]); !sameMBBs(got, want) {
			t.Fatalf("MBBs(%d, %d) read %x, want %x", rlo, rhi, got, want)
		}
		reads := int64(2) // the Scan and the Open
		got, want := scanMBBs(fs), wantMBBs(records)
		if !sameMBBs(got, want) {
			t.Fatalf("ScanMBB read %x, want %x", got, want)
		}
		if _, failed := got.(string); !failed {
			reads++
		}
		if st, br := fs.Stats(), reads*size; st != (Stats{
			BytesWritten: size, BytesRead: br, RecordsWritten: int64(n), RecordsRead: reads * int64(n),
			BlocksWritten: (size + 63) / 64, BlocksRead: (br + 63) / 64, FilesCreated: 1,
		}) {
			t.Fatalf("Stats = %+v after %d reads of %d records, %d bytes", st, reads, n, size)
		}
		var snap bytes.Buffer
		if err := fs.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		if want := snapshotImage(snapshotFile{"f", records}); !bytes.Equal(snap.Bytes(), want) {
			t.Fatalf("snapshot\n%x\nwant\n%x", snap.Bytes(), want)
		}
	})
}

// wantMBBs is what viewMBBs must read of records: their bytes when every
// one is an MBB record AppendMBB can have written, "error" otherwise.
func wantMBBs(records [][]byte) any {
	var rows []byte
	for _, rec := range records {
		if len(rec) != MBBRecordBytes || rec[MBBRecordBytes-1] > 1 {
			return "error"
		}
		rows = append(rows, rec...)
	}
	return rows
}

// sameMBBs compares a read with wantMBBs' answer: the same rows, or an
// error for "error".
func sameMBBs(got, want any) bool {
	if want == "error" {
		_, failed := got.(string)
		return failed
	}
	rows, ok := got.([]byte)
	return ok && bytes.Equal(rows, want.([]byte))
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
