package spatial

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/mapreduce"
)

// fuzzPartial builds a well-formed m-member partial record.
func fuzzPartial(m int) []byte {
	rec := binary.LittleEndian.AppendUint16(nil, uint16(m))
	for i := 0; i < m; i++ {
		rec = append(rec, make([]byte, memberBytes)...)
		putMember(rec[len(rec)-memberBytes:], int32(7*i+1), geom.Rect{X: float64(i), Y: 2, L: 3, B: 0.5})
	}
	return rec
}

// storeBytes is the memory a store has taken for its pages.
func storeBytes(s *partialStore) int {
	n := 0
	for _, page := range *s.pages.Load() {
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
	full := pageRecords(encodedPartialBytes(2))
	malformed := segment(2, 3)
	malformed[encodedPartialBytes(2)] = 3 // the second record claims 3 members
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
	f.Fuzz(func(t *testing.T, recs []byte, members uint8) {
		st := newPartialStore(1+int(members)%8, mapreduce.NewBufferPool())
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
				if err := checkPartial(recs[off:off+st.stride], st.m); err != nil {
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
	for _, page := range *s.pages.Load() {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(page)))
		if len(page) > 0 && at >= lo && at+uintptr(len(b)) <= lo+uintptr(len(page)) {
			return true
		}
	}
	return false
}

// FuzzDecodeCascadePair: a mesh frame is rejected or decodes
// to a pair that encodes back to the same bytes.
func FuzzDecodeCascadePair(f *testing.F) {
	frame := func(tag byte, body []byte) []byte {
		return append(append(binary.LittleEndian.AppendUint32(nil, 11), tag), body...)
	}
	item := encodeItem(tagged{Slot: 2, ID: 5, Rect: geom.Rect{X: 1, Y: 9, L: 2, B: 2}}, nil)
	f.Add(frame(cascadeTagTuple, fuzzPartial(2)), uint8(2), uint8(1))
	f.Add(frame(cascadeTagItem, item), uint8(2), uint8(0))
	f.Add(frame(cascadeTagItem, encodeItem(tagged{Slot: 1, Marked: true}, nil)), uint8(1), uint8(0))
	f.Add(frame(9, item), uint8(1), uint8(0))
	f.Add(frame(cascadeTagTuple, []byte{0xff, 0xff, 1}), uint8(1), uint8(0))
	f.Add([]byte{1, 2, 3}, uint8(1), uint8(0))
	f.Add(frame(cascadeTagTuple, append(fuzzPartial(2), fuzzPartial(2)...)), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, rec []byte, members, keyPos uint8) {
		m := 1 + int(members)%8
		cc := &cascadeCodec{in: newPartialStore(m, mapreduce.NewBufferPool()), slot: 2, keyPos: int(keyPos) % m}
		c, v, err := cc.decodePair(rec)
		if err != nil {
			if storeBytes(cc.in) != 0 {
				t.Fatalf("a rejected frame grew the store to %d bytes", storeBytes(cc.in))
			}
			return
		}
		if again := cc.encodePair(c, v, nil); !bytes.Equal(again, rec) {
			t.Fatalf("frame %x re-encodes to %x", rec, again)
		}
		if v.Page != itemPage {
			// Compared as bytes: a fuzzed rectangle may hold NaNs.
			var key, member [rectBytes]byte
			putRect(key[:], v.Rect)
			putRect(member[:], partialRect(cc.in.rec(v.ref()), cc.keyPos))
			if key != member {
				t.Fatalf("tuple value keyed by %v, not by its member %d", v.Rect, cc.keyPos)
			}
		}
		if got, limit := storeBytes(cc.in), mapreduce.PageBytes; got > limit {
			t.Fatalf("store took %d bytes for a %d-byte frame, limit %d", got, len(rec), limit)
		}
	})
}

// FuzzDecodeCellTagged: a C-Rep / All-Replicate mesh frame is
// rejected or decodes to an in-range slot and a pair that encodes back
// to the same bytes; the same holds for the jobs' ID output records.
func FuzzDecodeCellTagged(f *testing.F) {
	frame := func(t tagged) []byte { return encodeCellTagged(11, t, nil) }
	f.Add(frame(tagged{Slot: 2, ID: 5, Rect: geom.Rect{X: 1, Y: 9, L: 2, B: 2}, Marked: true}), uint8(3))
	f.Add(frame(tagged{Slot: 0, ID: -1}), uint8(1))
	f.Add(frame(tagged{Slot: 3}), uint8(3))
	f.Add(frame(tagged{Slot: -1}), uint8(3))
	f.Add(append(frame(tagged{Slot: 1})[:4+dfs.MBBRecordBytes-1], 2), uint8(2))
	f.Add(encodeIDOutput(-7, nil), uint8(3))
	f.Add(encodeIDOutput(4, nil)[:3], uint8(3))
	f.Add([]byte{0xff, 0xff, 1}, uint8(1))
	f.Fuzz(func(t *testing.T, rec []byte, slots uint8) {
		m := 1 + int(slots)%8
		if c, v, err := cellTaggedDecoder(m)(rec); err == nil {
			if v.Slot < 0 || int(v.Slot) >= m {
				t.Fatalf("frame %x decoded to slot %d of %d", rec, v.Slot, m)
			}
			if again := encodeCellTagged(c, v, nil); !bytes.Equal(again, rec) {
				t.Fatalf("frame %x re-encodes to %x", rec, again)
			}
		}
		if id, err := decodeIDOutput(rec); err == nil {
			if again := encodeIDOutput(id, nil); !bytes.Equal(again, rec) {
				t.Fatalf("id record %x re-encodes to %x", rec, again)
			}
		}
	})
}
