package spatial

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/mapreduce"
)

// allKept is the layout of m members that keeps every rectangle.
func allKept(m int) *partialLayout {
	rect := make([]bool, m)
	for pos := range rect {
		rect[pos] = true
	}
	return newPartialLayout(rect)
}

// fuzzLayout is the layout of a fuzzed store: 1+members%8 members, the
// set bits of members>>3 dropping the rectangles of positions 0–4. A
// members below 8 keeps every rectangle.
func fuzzLayout(members uint8) *partialLayout {
	rect := make([]bool, 1+int(members)%8)
	for pos := range rect {
		rect[pos] = members>>3>>pos&1 == 0
	}
	return newPartialLayout(rect)
}

// fuzzRecord builds a well-formed partial record of layout l.
func fuzzRecord(l *partialLayout) []byte {
	rec := make([]byte, l.stride)
	binary.LittleEndian.PutUint16(rec, uint16(l.members()))
	for i := range l.members() {
		putPartialMember(l, rec, i, int32(7*i+1), geom.Rect{X: float64(i), Y: 2, L: 3, B: 0.5})
	}
	return rec
}

// fuzzPartial builds a well-formed m-member partial record that keeps
// every rectangle.
func fuzzPartial(m int) []byte { return fuzzRecord(allKept(m)) }

// The projected layouts the fuzzers' last seeds are in: two members,
// the first one's rectangle dropped (what cascade_uniform's first round
// writes), and three members as ids alone (a final checkpoint's).
const (
	fuzzOneRect = 1 | 1<<3
	fuzzIDsOnly = 2 | 7<<3
)

// storeBytes is the memory a store has taken for its pages.
func storeBytes(s *partialStore) int {
	n := 0
	for _, page := range s.pages.Load().pages {
		n += len(page)
	}
	return n
}

// FuzzDecodePartial: a store rejects what is not one to a page of
// whole, well-formed records — a shuffled tuple is one, a reducer's
// output segment up to a page — without growing, whatever member count
// the records claim, and holds what it accepts as an exact copy within
// one page. Each input is decoded twice, so the second copy shares the
// first's page or takes the next.
func FuzzDecodePartial(f *testing.F) {
	segment := func(m, n int) []byte {
		var seg []byte
		for i := 0; i < n; i++ {
			seg = append(seg, fuzzPartial(m)...)
		}
		return seg
	}
	full := pageRecords(allKept(2).stride)
	malformed := segment(2, 3)
	malformed[allKept(2).stride] = 3 // the second record claims 3 members
	f.Add(fuzzPartial(1), uint8(1))
	f.Add(fuzzPartial(3), uint8(3))
	f.Add(fuzzPartial(3), uint8(2))
	f.Add([]byte{0xff, 0xff}, uint8(1))
	f.Add([]byte{}, uint8(4))
	// From here on, members is the store's member count less one.
	f.Add(segment(2, 1), uint8(1))
	f.Add(segment(3, 5), uint8(2))
	f.Add(segment(2, full), uint8(1))
	f.Add(segment(2, full+1), uint8(1))
	f.Add(malformed, uint8(1))
	f.Add(segment(2, 4)[1:], uint8(1))
	// From here on, members also drops rectangles (fuzzLayout).
	f.Add(fuzzRecord(fuzzLayout(fuzzOneRect)), uint8(fuzzOneRect))
	f.Add(fuzzRecord(fuzzLayout(fuzzIDsOnly)), uint8(fuzzIDsOnly))
	f.Add(fuzzPartial(2), uint8(fuzzOneRect))
	f.Fuzz(func(t *testing.T, recs []byte, members uint8) {
		st := newPartialStore(fuzzLayout(members), mapreduce.NewBufferPool())
		for range 2 {
			ref, got, err := st.decode(recs)
			if err != nil {
				if storeBytes(st) != 0 {
					t.Fatalf("rejected records grew the store to %d bytes", storeBytes(st))
				}
				return
			}
			if len(recs)%st.stride != 0 || len(recs)/st.stride > pageRecords(st.stride) {
				t.Fatalf("accepted %d bytes of %d-byte records", len(recs), st.stride)
			}
			for off := 0; off < len(recs); off += st.stride {
				if err := checkPartial(recs[off:off+st.stride], st.layout); err != nil {
					t.Fatalf("accepted a malformed record: %v", err)
				}
			}
			if !bytes.Equal(got, recs) || !bytes.Equal(st.rec(ref), recs[:st.stride]) {
				t.Fatalf("decoded %x, stored %x", recs, got)
			}
			if !inOnePage(st, got) {
				t.Fatalf("%d bytes of records not stored within one page", len(got))
			}
		}
		if got, limit := storeBytes(st), 2*mapreduce.PageBytes; got > limit {
			t.Fatalf("store took %d bytes for %d bytes of records decoded twice, limit %d", got, len(recs), limit)
		}
	})
}

// inOnePage reports whether b lies within one of s's pages.
func inOnePage(s *partialStore, b []byte) bool {
	at := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	for _, page := range s.pages.Load().pages {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(page)))
		if len(page) > 0 && at >= lo && at+uintptr(len(b)) <= lo+uintptr(len(page)) {
			return true
		}
	}
	return false
}

// The two fuzzers below hold every codec a spatial job ships with to
// the one property the engine's framing rests on — Read fails, or it
// takes k ≥ 1 bytes from the front of its input, leaves the rest, and
// Size and Append say exactly those k bytes for what it read — and bound
// what Read allocates by a page: a rejected record grows no store, an
// accepted one takes at most one page of it (checkCodec).

// FuzzDecodeCascadePair: a cascade round's value codec over 1–8 members
// keyed by member keyPos, and its output segment codec, each on a store
// of its own, in members' fuzzLayout — the value store's keeping keyPos's
// rectangle, as every round's input layout does. Beside the property, a
// tuple value is keyed by its member's rectangle. A tuple value's record
// is its partial and then its position, 4 bytes.
func FuzzDecodeCascadePair(f *testing.F) {
	value := func(tag byte, body []byte) []byte { return append([]byte{tag}, body...) }
	segment := func(m, n int) []byte {
		seg := binary.LittleEndian.AppendUint16(nil, uint16(n))
		for range n {
			seg = append(seg, fuzzPartial(m)...)
		}
		return seg
	}
	item := appendItem(nil, tagged{Slot: 2, ID: 5, Rect: geom.Rect{X: 1, Y: 9, L: 2, B: 2}})
	// Cascade values, of a round whose new slot is 2.
	f.Add(value(cascadeTagTuple, fuzzPartial(2)), uint8(2), uint8(1))
	f.Add(value(cascadeTagItem, item), uint8(2), uint8(0))
	f.Add(value(cascadeTagItem, appendItem(nil, tagged{Slot: 1, Marked: true})), uint8(1), uint8(0))
	f.Add(value(9, item), uint8(1), uint8(0))
	f.Add(value(cascadeTagTuple, []byte{0xff, 0xff, 1}), uint8(1), uint8(0))
	f.Add([]byte{1, 2, 3}, uint8(1), uint8(0))
	f.Add(value(cascadeTagTuple, append(fuzzPartial(2), fuzzPartial(2)...)), uint8(1), uint8(0))
	// Output segments.
	f.Add(segment(2, 3), uint8(1), uint8(0))
	f.Add(segment(3, pageRecords(allKept(3).stride)), uint8(2), uint8(0))
	f.Add(segment(2, pageRecords(allKept(2).stride)+1), uint8(1), uint8(0))
	f.Add(segment(2, 4)[:50], uint8(1), uint8(0))
	f.Add(segment(2, 0), uint8(1), uint8(0))
	// Projected layouts: a tuple keeping its key's rectangle alone, and an
	// output segment of ids-only records.
	f.Add(value(cascadeTagTuple, fuzzRecord(fuzzLayout(fuzzOneRect))), uint8(fuzzOneRect), uint8(1))
	ids := fuzzRecord(fuzzLayout(fuzzIDsOnly))
	f.Add(slices.Concat(binary.LittleEndian.AppendUint16(nil, 2), ids, ids), uint8(fuzzIDsOnly), uint8(0))
	// A tuple and its position in the round's tuple file: one an int32
	// holds, and one past it.
	f.Add(value(cascadeTagTuple, binary.LittleEndian.AppendUint32(fuzzPartial(2), 7)), uint8(1), uint8(1))
	f.Add(value(cascadeTagTuple, binary.LittleEndian.AppendUint32(fuzzPartial(2), 1<<31)), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, rec []byte, members, keyPos uint8) {
		l := fuzzLayout(members)
		m := l.members()
		keyed := slices.Clone(l.rect)
		keyed[int(keyPos)%m] = true
		var st *partialStore
		cc := &cascadeCodec{slot: 2, keyPos: int(keyPos) % m}
		v, ok := checkCodec(t, func() mapreduce.Codec[cascadeVal] {
			st = newPartialStore(newPartialLayout(keyed), mapreduce.NewBufferPool())
			cc.in = st
			return cc.values()
		}, rec)
		if ok && v.Pos != itemPos {
			// Compared as bytes: a fuzzed rectangle may hold NaNs.
			var key, member [rectBytes]byte
			putRect(key[:], v.Rect)
			putRect(member[:], partialRect(st.layout, st.at(v.ID), cc.keyPos))
			if key != member {
				t.Fatalf("tuple value keyed by %v, not by its member %d", v.Rect, cc.keyPos)
			}
		}
		checkStore(t, st, rec, ok)
		var seg *partialStore
		_, ok = checkCodec(t, func() mapreduce.Codec[[]byte] {
			seg = newPartialStore(l, mapreduce.NewBufferPool())
			return segmentCodec(seg)
		}, rec)
		checkStore(t, seg, rec, ok)
	})
}

// FuzzDecodeCellTagged: the item codec C-Rep / All-Replicate ship their
// cell-keyed values with, of a query of 1–8 slots, the record codec of
// the mark round's outputs, and the ID codec of the join rounds'. Beside
// the property, an item holds one of the query's slots, and the record
// codec reads what the item codec reads.
func FuzzDecodeCellTagged(f *testing.F) {
	f.Add(appendItem(nil, tagged{Slot: 2, ID: 5, Rect: geom.Rect{X: 1, Y: 9, L: 2, B: 2}, Marked: true}), uint8(3))
	f.Add(appendItem(nil, tagged{Slot: 0, ID: -1}), uint8(1))
	f.Add(appendItem(nil, tagged{Slot: 3}), uint8(3))
	f.Add(appendItem(nil, tagged{Slot: -1}), uint8(3))
	f.Add(append(appendItem(nil, tagged{Slot: 1})[:dfs.MBBRecordBytes-1], 2), uint8(2))
	f.Add(idCodec.Append(nil, -7), uint8(3))
	f.Add(idCodec.Append(nil, 4)[:3], uint8(3))
	f.Add([]byte{0xff, 0xff, 1}, uint8(1))
	f.Add(appendItem(appendItem(nil, tagged{Slot: 1}), tagged{Slot: 0}), uint8(2))
	f.Fuzz(func(t *testing.T, rec []byte, slots uint8) {
		m := 1 + int(slots)%8
		v, ok := checkCodec(t, func() mapreduce.Codec[tagged] { return itemCodec(m) }, rec)
		if ok && (v.Slot < 0 || int(v.Slot) >= m) {
			t.Fatalf("record %x read as slot %d of %d", rec, v.Slot, m)
		}
		if _, rok := checkCodec(t, func() mapreduce.Codec[itemRecord] { return itemRecordCodec(m) }, rec); rok != ok {
			t.Fatalf("record %x: the item codec accepts it %v, the record codec %v", rec, ok, rok)
		}
		checkCodec(t, func() mapreduce.Codec[int32] { return idCodec }, rec)
	})
}

// checkStore fails t if reading rec grew st though Read rejected it, or
// past one page.
func checkStore(t *testing.T, st *partialStore, rec []byte, accepted bool) {
	t.Helper()
	if got := storeBytes(st); !accepted && got != 0 || got > mapreduce.PageBytes {
		t.Fatalf("reading %d bytes (accepted: %v) grew the store to %d bytes", len(rec), accepted, got)
	}
}

// checkCodec reads one record from the front of rec with a codec from
// mk and holds it to the codec property the fuzzers above state,
// returning it and whether Read accepted it. A Read allocates at most a
// page and 1 KiB. The count it is measured by is the process's, which
// the fuzzing engine's goroutines grow too, and they only add: a Read
// over the limit is repeated, each time with a codec and store fresh
// from mk, and the least of three counts is held to it.
func checkCodec[T any](t *testing.T, mk func() mapreduce.Codec[T], rec []byte) (T, bool) {
	t.Helper()
	var (
		c      mapreduce.Codec[T]
		v      T
		rest   []byte
		err    error
		m0, m1 runtime.MemStats
	)
	least, limit := uint64(math.MaxUint64), uint64(mapreduce.PageBytes+1<<10)
	for i := 0; i < 3 && least > limit; i++ {
		c = mk()
		runtime.ReadMemStats(&m0)
		v, rest, err = c.Read(rec)
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	if least > limit {
		t.Fatalf("reading %d bytes allocated %d, limit %d", len(rec), least, limit)
	}
	if err != nil {
		return v, false
	}
	k := len(rec) - len(rest)
	if k < 1 || !bytes.Equal(rest, rec[k:]) {
		t.Fatalf("read %x leaving %x: not a record of at least one byte and the rest", rec, rest)
	}
	if size := c.Size(v); size != k {
		t.Fatalf("read %d bytes of %x, Size says %d", k, rec, size)
	}
	if again := c.Append(nil, v); !bytes.Equal(again, rec[:k]) {
		t.Fatalf("record %x appends as %x", rec[:k], again)
	}
	return v, true
}
