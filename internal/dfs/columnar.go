package dfs

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Columnar MBB files: the structs-of-arrays storage kind for the
// slot-tagged rectangle records every spatial relation is staged in.
//
// A boxed file holds one heap-allocated []byte per record; at paper
// scale (millions of 38-byte rectangles) those boxes dominate the
// allocation profile. A columnar file stores the same records as seven
// contiguous field planes (slot, id, the four rectangle coordinates,
// marked) — one allocation amortised over thousands of records, and
// scans hand decoded rows straight out of the planes with no
// per-record decode or copy.
//
// The charged byte accounting is identical on both kinds: every MBB
// record costs MBBRecordBytes whether it lives in a box or a column,
// so Stats and traces are bit-identical between the paths.
// Scan and View.Records still work on a columnar file (each row is
// synthesised into the boxed wire format on the fly), and ScanMBB and
// View.MBBs work on a boxed file (each record is decoded), so snapshots
// and generic readers interoperate freely.

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

// MBBRecordBytes is the charged size of one MBB record — identical for
// columnar and boxed storage, so the two kinds are indistinguishable
// in the Stats byte accounting.
const MBBRecordBytes = 1 + 4 + 4*8 + 1

// mbbColumns is the structs-of-arrays backing store of a columnar MBB
// file: one contiguous plane per field instead of one boxed []byte per
// record.
type mbbColumns struct {
	slots          []int8
	ids            []int32
	xs, ys, ls, bs []float64
	marked         []bool
}

func (c *mbbColumns) appendRow(m MBB) {
	c.slots = append(c.slots, m.Slot)
	c.ids = append(c.ids, m.ID)
	c.xs = append(c.xs, m.X)
	c.ys = append(c.ys, m.Y)
	c.ls = append(c.ls, m.L)
	c.bs = append(c.bs, m.B)
	c.marked = append(c.marked, m.Marked)
}

func (c *mbbColumns) row(i int) MBB {
	return MBB{
		Slot: c.slots[i], ID: c.ids[i],
		X: c.xs[i], Y: c.ys[i], L: c.ls[i], B: c.bs[i],
		Marked: c.marked[i],
	}
}

// AppendMBB appends m's wire record to buf. It is the one encoder of
// the layout: a columnar row Scanned record-wise and a spatial item
// record are both its bytes.
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
		return MBB{}, fmt.Errorf("dfs: MBB record has mark byte %d, want 0 or 1", rec[37])
	}
	return MBB{
		Slot:   int8(rec[0]),
		ID:     int32(binary.LittleEndian.Uint32(rec[1:])),
		X:      math.Float64frombits(binary.LittleEndian.Uint64(rec[5:])),
		Y:      math.Float64frombits(binary.LittleEndian.Uint64(rec[13:])),
		L:      math.Float64frombits(binary.LittleEndian.Uint64(rec[21:])),
		B:      math.Float64frombits(binary.LittleEndian.Uint64(rec[29:])),
		Marked: rec[37] == 1,
	}, nil
}

// CreateMBB makes (or truncates) the named file with columnar MBB
// storage and returns a writer for it. Like Writer, an MBBWriter is
// not safe for concurrent use.
func (fs *FS) CreateMBB(name string) *MBBWriter {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, exists := fs.files[name]; !exists {
		fs.filesCreated.Add(1)
	}
	f := &file{cols: &mbbColumns{}}
	fs.files[name] = f
	return &MBBWriter{fs: fs, f: f}
}

// MBBPlanes is the contents of a columnar MBB file held outside any
// file system, so that one set of rows can be staged into many
// (StageMBB) without being copied: a relation that every query stages
// is laid out once. It is immutable once built.
type MBBPlanes struct{ cols mbbColumns }

// NewMBBPlanes takes ownership of a relation's rows, given plane by
// plane — the ids and the rectangles' x, y, l and b, all of one length
// — as slot-0, unmarked records: the form a relation is staged in. The
// caller fills the planes in place, with no per-row call.
func NewMBBPlanes(ids []int32, xs, ys, ls, bs []float64) *MBBPlanes {
	n := len(ids)
	if len(xs) != n || len(ys) != n || len(ls) != n || len(bs) != n {
		panic(fmt.Sprintf("dfs: MBB planes of lengths %d, %d, %d, %d, %d", n, len(xs), len(ys), len(ls), len(bs)))
	}
	return &MBBPlanes{cols: mbbColumns{
		slots: make([]int8, n), ids: ids,
		xs: xs, ys: ys, ls: ls, bs: bs,
		marked: make([]bool, n),
	}}
}

// StageMBB makes (or truncates) the named file as a columnar file
// holding p's rows, charged exactly as CreateMBB, an Append per row and
// Close would charge them. The file shares p's planes, clipped to their
// length: a file is never written in place once closed, so neither the
// file nor another file staged from p can change what the other holds.
func (fs *FS) StageMBB(name string, p *MBBPlanes) error {
	w := fs.CreateMBB(name)
	c := &p.cols
	w.pending = mbbColumns{
		slots: slices.Clip(c.slots), ids: slices.Clip(c.ids),
		xs: slices.Clip(c.xs), ys: slices.Clip(c.ys), ls: slices.Clip(c.ls), bs: slices.Clip(c.bs),
		marked: slices.Clip(c.marked),
	}
	return w.Close()
}

// MBBWriter appends MBB rows to a columnar file created with
// CreateMBB. Rows accumulate in private column planes and are
// published (and charged — MBBRecordBytes per row, exactly what the
// boxed encoding would cost) on Close.
type MBBWriter struct {
	fs      *FS
	f       *file
	pending mbbColumns
	closed  bool
}

// Append adds one row. The value is copied into the column planes, so
// there is no buffer-ownership question to get wrong.
func (w *MBBWriter) Append(m MBB) {
	if w.closed {
		panic("dfs: Append on closed writer")
	}
	w.pending.appendRow(m)
}

// Close publishes the appended rows to the file and charges the write
// counters. A writer must be closed exactly once.
func (w *MBBWriter) Close() error {
	if w.closed {
		return fmt.Errorf("dfs: writer closed twice")
	}
	w.closed = true
	n := int64(len(w.pending.ids))
	bytes := n * MBBRecordBytes
	w.fs.mu.Lock()
	// CreateMBB made the file empty and a writer closes once, so the
	// planes become the file's, uncopied.
	*w.f.cols = w.pending
	w.f.bytes = bytes
	w.fs.mu.Unlock()
	w.fs.bytesWritten.Add(bytes)
	w.fs.recordsWritten.Add(n)
	w.pending = mbbColumns{}
	return nil
}

// ScanMBB reads every record of the named file in order as decoded
// MBBs, charging exactly the counters Scan would. On a columnar file
// this is the fast path: rows come straight out of the column planes
// with no per-record allocation or decode. On a boxed file each record
// is decoded (and must be a well-formed 38-byte MBB record), so the
// same call site also handles files restored from record-based
// snapshots.
func (fs *FS) ScanMBB(name string, fn func(MBB) error) error {
	f, err := fs.lookup(name)
	if err != nil {
		return err
	}
	if err := f.forEachMBB(0, int(f.count()), fn); err != nil {
		return err
	}
	fs.chargeRead(f.bytes, f.count())
	return nil
}

// forEachMBB streams records [lo, hi) as decoded rows. A row-wise
// record must be a well-formed 38-byte MBB record.
func (f *file) forEachMBB(lo, hi int, fn func(MBB) error) error {
	if c := f.cols; c != nil {
		for i := lo; i < hi; i++ {
			if err := fn(c.row(i)); err != nil {
				return err
			}
		}
		return nil
	}
	return f.forEachRange(int64(lo), int64(hi), func(rec []byte) error {
		m, err := DecodeMBB(rec)
		if err != nil {
			return err
		}
		return fn(m)
	})
}
