package spatial

import (
	"bytes"
	"encoding/binary"
	"testing"

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

// FuzzDecodePartial: a store either rejects a record or holds an exact
// copy of it, and what it allocates never depends on the member count
// the record claims.
func FuzzDecodePartial(f *testing.F) {
	f.Add(fuzzPartial(1), uint8(1))
	f.Add(fuzzPartial(3), uint8(3))
	f.Add(fuzzPartial(3), uint8(2))
	f.Add([]byte{0xff, 0xff}, uint8(1))
	f.Add([]byte{}, uint8(4))
	f.Fuzz(func(t *testing.T, rec []byte, members uint8) {
		st := newPartialStore(1+int(members)%8, mapreduce.NewBufferPool())
		ref, err := st.decode(rec)
		if err != nil {
			if storeBytes(st) != 0 {
				t.Fatalf("a rejected record grew the store to %d bytes", storeBytes(st))
			}
			return
		}
		if !bytes.Equal(st.rec(ref), rec) {
			t.Fatalf("decoded %x, stored %x", rec, st.rec(ref))
		}
		if got, limit := storeBytes(st), mapreduce.PageBytes; got > limit {
			t.Fatalf("store took %d bytes for a %d-byte record, limit %d", got, len(rec), limit)
		}
	})
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
// to the same bytes; the same holds for the jobs' tuple output records.
func FuzzDecodeCellTagged(f *testing.F) {
	frame := func(t tagged) []byte { return encodeCellTagged(11, t, nil) }
	f.Add(frame(tagged{Slot: 2, ID: 5, Rect: geom.Rect{X: 1, Y: 9, L: 2, B: 2}, Marked: true}), uint8(3))
	f.Add(frame(tagged{Slot: 0, ID: -1}), uint8(1))
	f.Add(frame(tagged{Slot: 3}), uint8(3))
	f.Add(frame(tagged{Slot: -1}), uint8(3))
	f.Add(append(frame(tagged{Slot: 1})[:4+dfs.MBBRecordBytes-1], 2), uint8(2))
	f.Add(encodeTupleOutput(Tuple{IDs: []int32{4, 0, 7}}, nil), uint8(3))
	f.Add(encodeTupleOutput(Tuple{IDs: []int32{4, 0}}, nil), uint8(3))
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
		if tu, err := tupleOutputDecoder(m)(rec); err == nil {
			if again := encodeTupleOutput(tu, nil); !bytes.Equal(again, rec) {
				t.Fatalf("tuple record %x re-encodes to %x", rec, again)
			}
		}
	})
}
