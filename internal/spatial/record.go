package spatial

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/mapreduce"
)

// Binary record formats for the simulated DFS. Sizes matter: the DFS
// byte counters are the paper's reading/writing-cost metric, so records
// use a compact fixed layout rather than a generic codec.
//
//	item record:  dfs.MBB's 38-byte record (dfs.AppendMBB, dfs.DecodeMBB)
//	tuple record: count(2) then per member id(4), followed by rect(32)
//	              only while a later cascade round reads it: the
//	              round's partialLayout, so the final checkpoint holds
//	              count(2) and ids alone
//	packed items: per item id(4) rect(32) — a relation's contents as
//	              Relation.Digest hashes them and a cluster ships them

const rectBytes = 32

// tagged is an item annotated with its query slot; it is the value
// flowing through every spatial map-reduce job. Marked carries the
// round-one Controlled-Replicate decision.
type tagged struct {
	Slot   int8
	ID     int32
	Rect   geom.Rect
	Marked bool
}

func putRect(buf []byte, r geom.Rect) {
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(r.X))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.Y))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(r.L))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(r.B))
}

func getRect(buf []byte) geom.Rect {
	return geom.Rect{
		X: math.Float64frombits(binary.LittleEndian.Uint64(buf[0:])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
		L: math.Float64frombits(binary.LittleEndian.Uint64(buf[16:])),
		B: math.Float64frombits(binary.LittleEndian.Uint64(buf[24:])),
	}
}

// appendItem appends a tagged item's DFS record to buf.
func appendItem(buf []byte, t tagged) []byte {
	return dfs.AppendMBB(buf, dfs.MBB{Slot: t.Slot, ID: t.ID, X: t.Rect.X, Y: t.Rect.Y, L: t.Rect.L, B: t.Rect.B, Marked: t.Marked})
}

// itemRecord is an item's DFS record as a value: what the mark round's
// reducers emit, so its gathered outputs are its checkpoint's bytes.
type itemRecord [dfs.MBBRecordBytes]byte

// recordBytes is the memory of recs as bytes, uncopied.
func recordBytes(recs []itemRecord) []byte {
	if len(recs) == 0 {
		return nil
	}
	return unsafe.Slice(&recs[0][0], len(recs)*dfs.MBBRecordBytes)
}

// mbbRect and mbbItem convert a row read from the DFS.
func mbbRect(m dfs.MBB) geom.Rect { return geom.Rect{X: m.X, Y: m.Y, L: m.L, B: m.B} }

func mbbItem(m dfs.MBB) tagged { return tagged{m.Slot, m.ID, mbbRect(m), m.Marked} }

// readItem parses the item record at the front of buf (dfs.DecodeMBB's
// checks: a mark byte of 0 or 1).
func readItem(buf []byte) (tagged, error) {
	if len(buf) < dfs.MBBRecordBytes {
		return tagged{}, fmt.Errorf("spatial: an item record cut short at %d bytes, want %d", len(buf), dfs.MBBRecordBytes)
	}
	m, err := dfs.DecodeMBB(buf[:dfs.MBBRecordBytes])
	return mbbItem(m), err
}

// Partial tuples — the cascade's intermediates — are tuples over a
// prefix of the plan's slot order. They exist only in their DFS record
// layout; all partials of a cascade round share one partialLayout, so
// they are fixed-stride records in pooled pointer-free pages
// (partialStore) and the shuffle moves small references into them.

// partialLayout is the record layout of the partials of one cascade
// round: the member count (2 bytes), then per plan position the
// member's id (4 bytes), followed by its rectangle (32 bytes) only
// where the layout keeps it. plan.layout keeps a rectangle only while a
// later round reads it, so a layout that keeps every rectangle is
// 2 + 36·members bytes, and the final checkpoint's is 2 + 4·members.
type partialLayout struct {
	off    []int  // byte offset of each member's id
	rect   []bool // whether each member's rectangle follows its id
	stride int    // the record's length
}

// newPartialLayout lays out len(rect) members, keeping the rectangles
// rect marks.
func newPartialLayout(rect []bool) *partialLayout {
	l := &partialLayout{off: make([]int, len(rect)), rect: rect, stride: 2}
	for pos, kept := range rect {
		l.off[pos] = l.stride
		l.stride += 4
		if kept {
			l.stride += rectBytes
		}
	}
	return l
}

// members is the member count every record of l holds.
func (l *partialLayout) members() int { return len(l.off) }

// checkPartial reports whether rec is a well-formed record of layout l,
// before anything is sized from the count it claims.
func checkPartial(rec []byte, l *partialLayout) error {
	if len(rec) != l.stride || int(binary.LittleEndian.Uint16(rec)) != l.members() {
		return fmt.Errorf("spatial: malformed partial record (%d bytes), want %d bytes for %d members", len(rec), l.stride, l.members())
	}
	return nil
}

// partialID reads the id of the member at plan position pos of a record
// of layout l, and partialRect its rectangle, which l must keep.
func partialID(l *partialLayout, rec []byte, pos int) int32 {
	return int32(binary.LittleEndian.Uint32(rec[l.off[pos]:]))
}

func partialRect(l *partialLayout, rec []byte, pos int) geom.Rect {
	return getRect(rec[l.off[pos]+4:])
}

// putPartialMember writes the member at plan position pos into rec, a
// record of layout l: its id, and its rectangle where l keeps it.
func putPartialMember(l *partialLayout, rec []byte, pos int, id int32, r geom.Rect) {
	binary.LittleEndian.PutUint32(rec[l.off[pos]:], uint32(id))
	if l.rect[pos] {
		putRect(rec[l.off[pos]+4:], r)
	}
}

// project writes the members of t, a record of layout from, into rec, a
// record of layout to, which has one member more and keeps no rectangle
// from drops: every id, and every rectangle to keeps. The count and the
// new member are the caller's.
func project(from, to *partialLayout, t, rec []byte) {
	for pos, src := range from.off {
		n := 4
		if to.rect[pos] {
			n += rectBytes
		}
		copy(rec[to.off[pos]:to.off[pos]+n], t[src:])
	}
}

// PackedItemBytes is the size of one packed item: its id, then its
// rectangle.
const PackedItemBytes = 4 + rectBytes

// AppendPacked appends items to buf packed, in order: the one encoding
// of a relation's contents, which Relation.Digest hashes and a cluster
// coordinator ships.
func AppendPacked(buf []byte, items []Item) []byte {
	off := len(buf)
	buf = slices.Grow(buf, len(items)*PackedItemBytes)[:off+len(items)*PackedItemBytes]
	for _, it := range items {
		binary.LittleEndian.PutUint32(buf[off:], uint32(it.ID))
		putRect(buf[off+4:], it.R)
		off += PackedItemBytes
	}
	return buf
}

// UnpackItems parses packed items (AppendPacked) into a fresh slice.
func UnpackItems(packed []byte) ([]Item, error) {
	if len(packed)%PackedItemBytes != 0 {
		return nil, fmt.Errorf("spatial: %d packed item bytes, not a multiple of %d", len(packed), PackedItemBytes)
	}
	items := make([]Item, len(packed)/PackedItemBytes)
	for i := range items {
		rec := packed[i*PackedItemBytes:]
		items[i] = Item{ID: int32(binary.LittleEndian.Uint32(rec)), R: getRect(rec[4:])}
	}
	return items, nil
}

// partialRef addresses one record of a partialStore: a page and the
// record's index within it.
type partialRef struct {
	Page, Idx int32
}

// partialStore holds one side of a cascade round — the partials its
// mappers read, or the ones its reducers emit — as records of one layout in
// fixed-size pages from the process's buffer pool. A map task's split,
// a reduce call's records and the decoded records (runs and outputs
// from other workers) each fill pages of their own in order, and no
// record straddles a page, so any recycled page serves any store. A
// record is written once, before its reference is handed out, and a
// page keeps its slot in the table, so records resolve without a lock.
type partialStore struct {
	layout  *partialLayout
	stride  int   // layout.stride
	perPage int32 // pageRecords(stride)
	pool    *mapreduce.BufferPool
	// pages is the page table, every slot of it readable: a page is
	// stored into the next free slot before any reference to it exists,
	// and a full table is replaced by a larger one. A store without pages
	// points at noPages; its first page takes a table the pool kept.
	pages atomic.Pointer[pageTable]
	mu    sync.Mutex // serialises page additions
	used  int        // the table's filled slots

	decMu sync.Mutex // serialises decode, which fills dec
	dec   pageWriter
}

// pageTable is a partial store's page table, a working set the pool
// keeps from one store to the next (mapreduce.GetScratch), grown to the
// most pages a store has held.
type pageTable struct{ pages [][]byte }

func (t *pageTable) Reserve(n int) {
	if n > len(t.pages) {
		t.pages = make([][]byte, n)
	}
}

func (t *pageTable) Room() int { return len(t.pages) }

func (t *pageTable) Bytes() int64 { return int64(cap(t.pages)) * int64(unsafe.Sizeof([]byte(nil))) }

// noPages is the table of every store that holds no page. Nothing writes
// it.
var noPages pageTable

func newPartialStore(l *partialLayout, pool *mapreduce.BufferPool) *partialStore {
	s := &partialStore{layout: l, stride: l.stride, perPage: int32(pageRecords(l.stride)), pool: pool}
	s.pages.Store(&noPages)
	s.dec.s = s
	return s
}

// newPage takes a page from the pool, publishes it and returns its
// number and its whole records.
func (s *partialStore) newPage() (int32, []byte) {
	page := s.pool.GetPage()
	s.mu.Lock()
	defer s.mu.Unlock()
	if int64(s.used+1)*int64(s.perPage) > math.MaxInt32 {
		// A map or reduce task reports it as its error.
		panic("spatial: a partial store past 2³¹ records")
	}
	t := s.pages.Load()
	if s.used == len(t.pages) {
		// A reader may hold the full table, so it is left to the
		// collector, not the pool.
		grown := mapreduce.GetScratch[pageTable](s.pool, 2*s.used+16)
		grown.Reserve(2*s.used + 16) // a nil pool's is new
		copy(grown.pages, t.pages[:s.used])
		s.pages.Store(grown)
		t = grown
	}
	t.pages[s.used] = page
	s.used++
	return int32(s.used - 1), page[:int(s.perPage)*s.stride]
}

// rec resolves a reference to its record.
func (s *partialStore) rec(ref partialRef) []byte {
	off := int(ref.Idx) * s.stride
	return s.pages.Load().pages[ref.Page][off : off+s.stride : off+s.stride]
}

// slot numbers the record at ref: every record of its page's
// predecessors in the page table comes before it. newPage keeps the
// slots within an int32.
func (s *partialStore) slot(ref partialRef) int32 { return ref.Page*s.perPage + ref.Idx }

// at resolves a slot to its record.
func (s *partialStore) at(slot int32) []byte {
	return s.rec(partialRef{Page: slot / s.perPage, Idx: slot % s.perPage})
}

// release hands every page back to the pool. Nothing may read the store,
// or a record or reference it handed out, after.
func (s *partialStore) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.pages.Swap(&noPages)
	for _, page := range t.pages[:s.used] {
		s.pool.PutPage(page)
	}
	if t != &noPages {
		clear(t.pages[:s.used])
		mapreduce.PutScratch(s.pool, t)
	}
	s.used = 0
}

// pageWriter fills pages of one store in order. It is not safe for
// concurrent use: each map task, reduce call and the store's decoder has
// its own.
type pageWriter struct {
	s    *partialStore
	page []byte       // the current page's whole records
	next partialRef   // the next record's reference; next.Idx records of page are filled
	emit func([]byte) // if set, gets each page's records as the writer leaves it
}

func (s *partialStore) writer() pageWriter { return pageWriter{s: s} }

// take returns the reference and bytes of the next n records, all in
// one page: a new one when the current page has no room for them. n is
// at most a page's records, and the caller must write them in full: a
// recycled page holds stale records.
func (w *pageWriter) take(n int) (partialRef, []byte) {
	off, size := int(w.next.Idx)*w.s.stride, n*w.s.stride
	if off+size > len(w.page) {
		w.flush()
		w.next.Page, w.page = w.s.newPage()
		w.next.Idx, off = 0, 0
	}
	ref := w.next
	w.next.Idx += int32(n)
	return ref, w.page[off : off+size : off+size]
}

// flush hands the current page's records to emit, if set. A writer
// fills each page before it takes the next.
func (w *pageWriter) flush() {
	if n := int(w.next.Idx) * w.s.stride; n > 0 && w.emit != nil {
		w.emit(w.page[:n:n])
	}
}

// pageRecords is the most records of stride bytes one page holds.
func pageRecords(stride int) int { return mapreduce.PageBytes / stride }

// decode validates whole partial records — a shuffled tuple, or a
// reduce call's output segment — and copies them into one page of the
// store, returning the first one's reference and the copy.
func (s *partialStore) decode(recs []byte) (partialRef, []byte, error) {
	n := len(recs) / s.stride
	if n == 0 || len(recs)%s.stride != 0 || n > pageRecords(s.stride) {
		return partialRef{}, nil, fmt.Errorf("spatial: %d bytes of partials, want 1 to %d whole %d-byte records", len(recs), pageRecords(s.stride), s.stride)
	}
	for off := 0; off < len(recs); off += s.stride {
		if err := checkPartial(recs[off:off+s.stride], s.layout); err != nil {
			return partialRef{}, nil, err
		}
	}
	s.decMu.Lock()
	defer s.decMu.Unlock()
	ref, dst := s.dec.take(n)
	copy(dst, recs)
	return ref, dst, nil
}

// Wire codecs: the one form each type a spatial job ships between
// workers takes (mapreduce.Codec). A value record carries no cell, since
// the run it travels in names its reducer, and every record is in the
// encoding the DFS already holds it in, so a shipped run decodes to the
// exact values that were written — bit-identical shuffle results are
// the acceptance criterion, not a nice-to-have.

// itemCodec is the wire form of an item of a query of m slots: its
// 38-byte DFS record. It carries All-Replicate's values, both C-Rep
// rounds' values and, as itemRecordCodec, the mark round's outputs.
// A slot outside [0, m)
// would index past a reducer's per-slot tables, or count a mark no
// relation holds, so Read rejects it.
func itemCodec(m int) mapreduce.Codec[tagged] {
	return mapreduce.Codec[tagged]{
		Size:   func(tagged) int { return dfs.MBBRecordBytes },
		Append: appendItem,
		Read: func(buf []byte) (tagged, []byte, error) {
			t, err := readItem(buf)
			if err != nil {
				return tagged{}, nil, err
			}
			if t.Slot < 0 || int(t.Slot) >= m {
				return tagged{}, nil, fmt.Errorf("spatial: item record has slot %d, want [0, %d)", t.Slot, m)
			}
			return t, buf[dfs.MBBRecordBytes:], nil
		},
	}
}

func itemRecordCodec(m int) mapreduce.Codec[itemRecord] {
	items := itemCodec(m)
	return mapreduce.Codec[itemRecord]{
		Size:   func(itemRecord) int { return dfs.MBBRecordBytes },
		Append: func(buf []byte, rec itemRecord) []byte { return append(buf, rec[:]...) },
		Read: func(buf []byte) (itemRecord, []byte, error) {
			_, rest, err := items.Read(buf)
			if err != nil {
				return itemRecord{}, nil, err
			}
			return itemRecord(buf), rest, nil
		},
	}
}

// idCodec is the wire form of one ID of a join round's output: 4 bytes,
// little-endian. A reducer emits a tuple as its IDs in slot order, so
// the gathered outputs are the result's ID slab.
var idCodec = mapreduce.Codec[int32]{
	Size:   func(int32) int { return 4 },
	Append: func(buf []byte, id int32) []byte { return binary.LittleEndian.AppendUint32(buf, uint32(id)) },
	Read: func(buf []byte) (int32, []byte, error) {
		if len(buf) < 4 {
			return 0, nil, fmt.Errorf("spatial: an id record cut short at %d bytes, want 4", len(buf))
		}
		return int32(binary.LittleEndian.Uint32(buf)), buf[4:], nil
	},
}

// cascadeTag distinguishes the two cascadeVal shapes on the wire: the
// tag byte, then a partial-tuple record and its position (4 bytes,
// little-endian), or an item record.
const (
	cascadeTagItem  = 0
	cascadeTagTuple = 1
)

// cascadeCodec is the wire form of one cascade round's shuffled values.
// A tuple's reference is resolved through the round's input store on
// the way out and decoded into it on the way in, so the record carries
// the partial itself and costs the same however a process holds its
// partials in memory; its position in the round's tuple file, which
// orders it in its reducer's sweep, travels beside it.
type cascadeCodec struct {
	in     *partialStore
	slot   int8 // the round's new slot, stamped on item records
	keyPos int  // plan position of the member whose rectangle keys a tuple; in's layout keeps it
}

// values is the round's value codec.
func (cc *cascadeCodec) values() mapreduce.Codec[cascadeVal] {
	return mapreduce.Codec[cascadeVal]{Size: cc.size, Append: cc.append, Read: cc.read}
}

func (cc *cascadeCodec) size(v cascadeVal) int {
	if v.Pos != itemPos {
		return 1 + cc.in.stride + 4
	}
	return 1 + dfs.MBBRecordBytes
}

func (cc *cascadeCodec) append(buf []byte, v cascadeVal) []byte {
	if v.Pos != itemPos {
		buf = append(append(buf, cascadeTagTuple), cc.in.at(v.ID)...)
		return binary.LittleEndian.AppendUint32(buf, uint32(v.Pos))
	}
	return appendItem(append(buf, cascadeTagItem), tagged{Slot: cc.slot, ID: v.ID, Rect: v.Rect})
}

func (cc *cascadeCodec) read(buf []byte) (cascadeVal, []byte, error) {
	if len(buf) == 0 {
		return cascadeVal{}, nil, errors.New("spatial: a cascade record cut short at its tag")
	}
	switch body := buf[1:]; buf[0] {
	case cascadeTagTuple:
		n := cc.in.stride + 4
		if len(body) < n {
			return cascadeVal{}, nil, fmt.Errorf("spatial: a cascade tuple record cut short at %d bytes, want %d", len(body), n)
		}
		// Checked first: a record decode rejects must not grow the store.
		pos := binary.LittleEndian.Uint32(body[cc.in.stride:])
		if pos > math.MaxInt32 {
			return cascadeVal{}, nil, fmt.Errorf("spatial: a cascade tuple at position %d", pos)
		}
		ref, _, err := cc.in.decode(body[:cc.in.stride])
		if err != nil {
			return cascadeVal{}, nil, err
		}
		return cc.in.tupleVal(ref, partialRect(cc.in.layout, body, cc.keyPos), int32(pos)), body[n:], nil
	case cascadeTagItem:
		t, err := readItem(body)
		if err != nil {
			return cascadeVal{}, nil, err
		}
		if t.Slot != cc.slot || t.Marked {
			return cascadeVal{}, nil, fmt.Errorf("spatial: cascade item is not an unmarked slot-%d item", cc.slot)
		}
		return cascadeVal{Rect: t.Rect, ID: t.ID, Pos: itemPos}, body[dfs.MBBRecordBytes:], nil
	default:
		return cascadeVal{}, nil, fmt.Errorf("spatial: cascade record has unknown tag %d", buf[0])
	}
}

// segmentCodec is the wire form of a cascade reduce call's output
// segment: its record count (2 bytes, little-endian: a page holds fewer
// than 2¹⁶ records), then its records. Read decodes them into one page
// of out.
func segmentCodec(out *partialStore) mapreduce.Codec[[]byte] {
	return mapreduce.Codec[[]byte]{
		Size: func(seg []byte) int { return 2 + len(seg) },
		Append: func(buf, seg []byte) []byte {
			return append(binary.LittleEndian.AppendUint16(buf, uint16(len(seg)/out.stride)), seg...)
		},
		Read: func(buf []byte) ([]byte, []byte, error) {
			if len(buf) < 2 {
				return nil, nil, fmt.Errorf("spatial: a segment record cut short at %d bytes", len(buf))
			}
			n := int(binary.LittleEndian.Uint16(buf)) * out.stride
			if n > len(buf)-2 {
				return nil, nil, fmt.Errorf("spatial: a segment of %d bytes cut short at %d", n, len(buf)-2)
			}
			_, seg, err := out.decode(buf[2 : 2+n])
			if err != nil {
				return nil, nil, err
			}
			return seg, buf[2+n:], nil
		},
	}
}
