package dfs

import (
	"encoding/binary"
	"fmt"
	"math"
)

// MBB files: the slot-tagged rectangle records every spatial relation
// is staged in and the item checkpoints hold, read back as decoded rows
// by ScanMBB and View.MBBs.

// MBB is one minimum-bounding-box record: a query-slot-tagged
// rectangle in the (x, y, l, b) start-point + extents layout of
// geom.Rect, plus the replication mark. Its wire format is the 38-byte
// item record: slot(1) id(4) x,y,l,b(8 each, little-endian float64
// bits) marked(1, 0 or 1), written by AppendMBB and read by DecodeMBB.
type MBB struct {
	Slot       int8
	ID         int32
	X, Y, L, B float64
	Marked     bool
}

// MBBRecordBytes is the size, stored and charged, of one MBB record.
const MBBRecordBytes = 1 + 4 + 4*8 + 1

// AppendMBB appends m's wire record to buf. It is the one encoder of
// the layout: a staged relation's rows and a spatial item record are
// both its bytes.
func AppendMBB(buf []byte, m MBB) []byte {
	var rec [MBBRecordBytes]byte
	rec[0] = byte(m.Slot)
	binary.LittleEndian.PutUint32(rec[1:], uint32(m.ID))
	binary.LittleEndian.PutUint64(rec[5:], math.Float64bits(m.X))
	binary.LittleEndian.PutUint64(rec[13:], math.Float64bits(m.Y))
	binary.LittleEndian.PutUint64(rec[21:], math.Float64bits(m.L))
	binary.LittleEndian.PutUint64(rec[29:], math.Float64bits(m.B))
	if m.Marked {
		rec[37] = 1
	}
	return append(buf, rec[:]...)
}

// DecodeMBB parses one wire record. A mark byte other than 0 or 1 is
// one AppendMBB cannot have written, so it is rejected, not read as
// unmarked: every record that decodes re-encodes to its own bytes.
func DecodeMBB(rec []byte) (MBB, error) {
	if len(rec) != MBBRecordBytes {
		return MBB{}, fmt.Errorf("dfs: MBB record has %d bytes, want %d", len(rec), MBBRecordBytes)
	}
	if rec[37] > 1 {
		return MBB{}, markError(rec[37])
	}
	return decodeMBB((*[MBBRecordBytes]byte)(rec)), nil
}

// decodeMBB parses one record whose mark byte the caller has checked.
// It returns the row alone and inlines, so a loop over a file's rows
// builds the row straight into fn's arguments: a returned (MBB, bool)
// was copied through the stack at twice the cost a row (EXPERIMENTS.md,
// "One kind of DFS file").
func decodeMBB(rec *[MBBRecordBytes]byte) MBB {
	return MBB{
		Slot:   int8(rec[0]),
		ID:     int32(binary.LittleEndian.Uint32(rec[1:])),
		X:      math.Float64frombits(binary.LittleEndian.Uint64(rec[5:])),
		Y:      math.Float64frombits(binary.LittleEndian.Uint64(rec[13:])),
		L:      math.Float64frombits(binary.LittleEndian.Uint64(rec[21:])),
		B:      math.Float64frombits(binary.LittleEndian.Uint64(rec[29:])),
		Marked: rec[37] == 1,
	}
}

// markError is the mark byte's error, built out of line so that the
// decoding paths stay small.
func markError(mark byte) error {
	return fmt.Errorf("dfs: MBB record has mark byte %d, want 0 or 1", mark)
}

// CreateMBB makes (or truncates) the named file, empty, and returns a
// writer of its MBB rows. An MBBWriter is not safe for concurrent use.
func (fs *FS) CreateMBB(name string) *MBBWriter {
	// An empty file is always a valid write.
	_ = fs.WriteSegments(name, Segments{Stride: MBBRecordBytes})
	return &MBBWriter{fs: fs, name: name}
}

// MBBWriter appends MBB rows to a file created with CreateMBB. Rows
// accumulate as records in one private buffer, published and charged
// (MBBRecordBytes per row) on Close.
type MBBWriter struct {
	fs      *FS
	name    string
	pending []byte
	closed  bool
}

// Append adds one row. The value is encoded into the writer's buffer,
// so there is no buffer-ownership question to get wrong.
func (w *MBBWriter) Append(m MBB) {
	if w.closed {
		panic("dfs: Append on closed writer")
	}
	w.pending = AppendMBB(w.pending, m)
}

// Close publishes the appended rows to the file, their buffer uncopied,
// and charges the write counters. A writer must be closed exactly once.
func (w *MBBWriter) Close() error {
	if w.closed {
		return fmt.Errorf("dfs: writer closed twice")
	}
	w.closed = true
	rows := w.pending
	w.pending = nil
	return w.fs.WriteSegments(w.name, Segments{Stride: MBBRecordBytes, Segs: [][]byte{rows}})
}

// ScanMBB reads every record of the named file in order as decoded
// MBBs, charging exactly the counters Scan would. The file's records
// must be MBB records.
func (fs *FS) ScanMBB(name string, fn func(MBB) error) error {
	f, err := fs.lookup(name)
	if err != nil {
		return err
	}
	if err := f.forEachMBB(0, f.count(), fn); err != nil {
		return err
	}
	fs.chargeRead(f.bytes, f.count())
	return nil
}

// forEachMBB streams records [lo, hi) as decoded rows, walking the
// segments itself: on a staged relation this is the hot read of every
// map task, one call of fn per row.
func (f *file) forEachMBB(lo, hi int64, fn func(MBB) error) error {
	if lo == hi {
		return nil
	}
	if f.stride != MBBRecordBytes {
		return fmt.Errorf("dfs: MBB read of %d-byte records, want %d", f.stride, MBBRecordBytes)
	}
	k, off := f.seek(lo)
	for n := hi - lo; n > 0; k, off = k+1, 0 {
		seg := f.segs[k]
		for ; off < len(seg) && n > 0; off += MBBRecordBytes {
			rec := (*[MBBRecordBytes]byte)(seg[off:])
			if rec[37] > 1 {
				return markError(rec[37])
			}
			if err := fn(decodeMBB(rec)); err != nil {
				return err
			}
			n--
		}
	}
	return nil
}
