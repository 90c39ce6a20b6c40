package spatial

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/mapreduce"
)

// Binary record formats for the simulated DFS. Sizes matter: the DFS
// byte counters are the paper's reading/writing-cost metric, so records
// use a compact fixed layout rather than a generic codec.
//
//	item record:  dfs.MBB's 38-byte record (dfs.AppendMBB, dfs.DecodeMBB)
//	tuple record: count(2) then per member id(4) rect(32)

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

// encodeItem appends a tagged item's DFS record to buf — also the
// output codec of jobs that emit items (c-rep round 1).
func encodeItem(t tagged, buf []byte) []byte {
	return dfs.AppendMBB(buf, dfs.MBB{Slot: t.Slot, ID: t.ID, X: t.Rect.X, Y: t.Rect.Y, L: t.Rect.L, B: t.Rect.B, Marked: t.Marked})
}

// itemRecords renders tagged items as DFS records: views into one
// buffer, in the form Chain.Step takes over.
func itemRecords(items []tagged) [][]byte {
	const n = dfs.MBBRecordBytes
	buf := make([]byte, 0, len(items)*n)
	recs := make([][]byte, len(items))
	for i, it := range items {
		buf = encodeItem(it, buf)
		recs[i] = buf[i*n : (i+1)*n : (i+1)*n]
	}
	return recs
}

// mbbRect and mbbItem convert a row read from the DFS.
func mbbRect(m dfs.MBB) geom.Rect { return geom.Rect{X: m.X, Y: m.Y, L: m.L, B: m.B} }

func mbbItem(m dfs.MBB) tagged { return tagged{m.Slot, m.ID, mbbRect(m), m.Marked} }

// decodeItem parses a DFS item record (dfs.DecodeMBB's checks: length,
// and a mark byte of 0 or 1).
func decodeItem(buf []byte) (tagged, error) {
	m, err := dfs.DecodeMBB(buf)
	return mbbItem(m), err
}

// Partial tuples — the cascade's intermediates — are tuples over a
// prefix of the plan's slot order, one (id, rect) member per bound slot.
// They exist only in their DFS record layout; all partials of a cascade
// round have the same member count, so they are fixed-stride records in
// pooled pointer-free pages (partialStore) and the shuffle moves small
// references into them.

// memberBytes is the encoded size of one partial member.
const memberBytes = 4 + rectBytes

// encodedPartialBytes is the record size of a partial with n members.
func encodedPartialBytes(n int) int { return 2 + n*memberBytes }

// checkPartial reports whether rec is a well-formed partial record of
// exactly m members, before anything is sized from the count it claims.
func checkPartial(rec []byte, m int) error {
	if len(rec) < 2 || int(binary.LittleEndian.Uint16(rec)) != m || len(rec) != encodedPartialBytes(m) {
		return fmt.Errorf("spatial: malformed partial record (%d bytes), want %d bytes for %d members", len(rec), encodedPartialBytes(m), m)
	}
	return nil
}

// partialID and partialRect read the member at plan position pos.
func partialID(rec []byte, pos int) int32 {
	return int32(binary.LittleEndian.Uint32(rec[2+pos*memberBytes:]))
}

func partialRect(rec []byte, pos int) geom.Rect {
	return getRect(rec[2+pos*memberBytes+4:])
}

// putMember writes one (id, rect) member into buf[:memberBytes].
func putMember(buf []byte, id int32, r geom.Rect) {
	binary.LittleEndian.PutUint32(buf, uint32(id))
	putRect(buf[4:], r)
}

// partialRef addresses one record of a partialStore: a page and the
// record's index within it.
type partialRef struct {
	Page, Idx int32
}

// partialStore holds one side of a cascade round — the partials its
// mappers read, or the ones its reducers emit — as m-member records in
// fixed-size pages from the process's buffer pool. A map task's split,
// a reduce call's records and the decoded records (runs and outputs
// from other workers) each fill pages of their own in order, and no record straddles a page, so any recycled page
// serves any store. A record is written once, before its reference is
// handed out, and a page keeps its slot in the table, so records
// resolve without a lock.
type partialStore struct {
	m, stride int
	pool      *mapreduce.BufferPool
	// pages is the page table, every slot of it readable: a page is
	// stored into the next free slot before any reference to it exists,
	// and a full table is replaced by a larger copy.
	pages atomic.Pointer[[][]byte]
	mu    sync.Mutex // serialises page additions
	used  int        // the table's filled slots

	decMu sync.Mutex // serialises decode, which fills dec
	dec   pageWriter
}

func newPartialStore(m int, pool *mapreduce.BufferPool) *partialStore {
	s := &partialStore{m: m, stride: encodedPartialBytes(m), pool: pool}
	s.pages.Store(new([][]byte))
	s.dec.s = s
	return s
}

// newPage takes a page from the pool, publishes it and returns its
// number and its whole records.
func (s *partialStore) newPage() (int32, []byte) {
	page := s.pool.GetPage()
	s.mu.Lock()
	defer s.mu.Unlock()
	table := *s.pages.Load()
	if s.used == len(table) {
		table = append(table, make([][]byte, len(table)+16)...)
		s.pages.Store(&table)
	}
	table[s.used] = page
	s.used++
	return int32(s.used - 1), page[:len(page)/s.stride*s.stride]
}

// rec resolves a reference to its record.
func (s *partialStore) rec(ref partialRef) []byte {
	off := int(ref.Idx) * s.stride
	return (*s.pages.Load())[ref.Page][off : off+s.stride : off+s.stride]
}

// release hands every page back to the pool. Nothing may read the store,
// or a record or reference it handed out, after.
func (s *partialStore) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, page := range (*s.pages.Swap(new([][]byte)))[:s.used] {
		s.pool.PutPage(page)
	}
	s.used = 0
}

// pageWriter fills pages of one store in order. It is not safe for
// concurrent use: each map task, reduce call and the store's decoder has
// its own.
type pageWriter struct {
	s    *partialStore
	next partialRef // the reference of the record free starts with
	free []byte     // the unfilled records of the current page
}

func (s *partialStore) writer() pageWriter { return pageWriter{s: s} }

// add returns the next record's reference and its bytes, which the
// caller must write in full: a recycled page holds stale records.
func (w *pageWriter) add() (partialRef, []byte) {
	stride := w.s.stride
	if len(w.free) == 0 {
		w.next.Page, w.free = w.s.newPage()
		w.next.Idx = 0
	}
	ref, rec := w.next, w.free[:stride:stride]
	w.free, w.next.Idx = w.free[stride:], ref.Idx+1
	return ref, rec
}

// decode validates one partial record and copies it into the store.
func (s *partialStore) decode(rec []byte) (partialRef, error) {
	if err := checkPartial(rec, s.m); err != nil {
		return partialRef{}, err
	}
	s.decMu.Lock()
	defer s.decMu.Unlock()
	ref, dst := s.dec.add()
	copy(dst, rec)
	return ref, nil
}

// Pair codecs: frame one intermediate (cell, value) pair for the
// engine's run exchange between workers (mapreduce.Job.EncodePair/
// DecodePair). Layout is the 4-byte little-endian cell id followed by
// the value in its existing DFS record encoding, so a shipped run
// decodes to the exact pairs that were written — bit-identical shuffle
// results are the acceptance criterion, not a nice-to-have.

// encodeCellTagged frames a (cell, item) pair: cell(4) item(38).
func encodeCellTagged(c grid.CellID, t tagged, buf []byte) []byte {
	return encodeItem(t, binary.LittleEndian.AppendUint32(buf, uint32(c)))
}

// cellTaggedDecoder parses encodeCellTagged records of a query of m
// slots. A slot outside [0, m) would index past a reducer's per-slot
// tables, so it is rejected here, as a decode error.
func cellTaggedDecoder(m int) func(rec []byte) (grid.CellID, tagged, error) {
	return func(rec []byte) (grid.CellID, tagged, error) {
		if len(rec) != 4+dfs.MBBRecordBytes {
			return 0, tagged{}, fmt.Errorf("spatial: item pair has %d bytes, want %d", len(rec), 4+dfs.MBBRecordBytes)
		}
		t, err := decodeItem(rec[4:])
		if err != nil {
			return 0, tagged{}, err
		}
		if t.Slot < 0 || int(t.Slot) >= m {
			return 0, tagged{}, fmt.Errorf("spatial: item pair has slot %d, want [0, %d)", t.Slot, m)
		}
		return grid.CellID(binary.LittleEndian.Uint32(rec)), t, nil
	}
}

// cascadeTag distinguishes the two cascadeVal shapes in a pair frame:
// cell(4) tag(1) then a partial-tuple or item record.
const (
	cascadeTagItem  = 0
	cascadeTagTuple = 1
)

// cascadeCodec frames one cascade round's shuffled pairs for the
// network. A tuple's reference is resolved through the round's
// input store on the way out and decoded into it on the way in, so the
// frame carries the partial record itself and costs the same however a
// process holds its partials in memory.
type cascadeCodec struct {
	in     *partialStore
	slot   int8 // the round's new slot, stamped on item records
	keyPos int  // plan position of the member whose rectangle keys a tuple
}

// encodePair frames a (cell, cascadeVal) pair.
func (cc *cascadeCodec) encodePair(c grid.CellID, v cascadeVal, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	if v.Page != itemPage {
		return append(append(buf, cascadeTagTuple), cc.in.rec(v.ref())...)
	}
	return encodeItem(tagged{Slot: cc.slot, ID: v.ID, Rect: v.Rect}, append(buf, cascadeTagItem))
}

// decodePair parses an encodePair frame.
func (cc *cascadeCodec) decodePair(rec []byte) (grid.CellID, cascadeVal, error) {
	if len(rec) < 5 {
		return 0, cascadeVal{}, fmt.Errorf("spatial: cascade pair too short (%d bytes)", len(rec))
	}
	c := grid.CellID(binary.LittleEndian.Uint32(rec))
	switch rec[4] {
	case cascadeTagTuple:
		ref, err := cc.in.decode(rec[5:])
		if err != nil {
			return 0, cascadeVal{}, err
		}
		return c, tupleVal(ref, partialRect(rec[5:], cc.keyPos)), nil
	case cascadeTagItem:
		t, err := decodeItem(rec[5:])
		if err != nil {
			return 0, cascadeVal{}, err
		}
		if t.Slot != cc.slot || t.Marked {
			return 0, cascadeVal{}, fmt.Errorf("spatial: cascade item is not an unmarked slot-%d item", cc.slot)
		}
		return c, cascadeVal{Rect: t.Rect, ID: t.ID, Page: itemPage}, nil
	default:
		return 0, cascadeVal{}, fmt.Errorf("spatial: cascade pair has unknown tag %d", rec[4])
	}
}

// Output codecs: frame one job output record so a distributed run can
// gather reducer outputs across workers (mapreduce.Job.EncodeOutput/
// DecodeOutput). Each mirrors the value's DFS layout.

// encodeTupleOutput frames a result tuple: count(2) then 4 bytes per id.
func encodeTupleOutput(t Tuple, buf []byte) []byte {
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(t.IDs)))
	buf = append(buf, hdr[:]...)
	for _, id := range t.IDs {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(id))
		buf = append(buf, b[:]...)
	}
	return buf
}

// tupleOutputDecoder parses encodeTupleOutput records of a query of m
// slots: a tuple of any other width is one the job cannot have emitted.
func tupleOutputDecoder(m int) func(rec []byte) (Tuple, error) {
	return func(rec []byte) (Tuple, error) {
		if len(rec) != 2+4*m || int(binary.LittleEndian.Uint16(rec)) != m {
			return Tuple{}, fmt.Errorf("spatial: malformed tuple record (%d bytes), want %d bytes for %d ids", len(rec), 2+4*m, m)
		}
		t := Tuple{IDs: make([]int32, m)}
		for i := range t.IDs {
			t.IDs[i] = int32(binary.LittleEndian.Uint32(rec[2+4*i:]))
		}
		return t, nil
	}
}
