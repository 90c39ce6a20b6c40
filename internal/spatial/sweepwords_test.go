package spatial

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// sweepKey and compareSweepKeys are the comparator sort
// sortSweepWords replaced: a value's MinX as an ordered integer, then
// its arrival position.
type sweepKey struct {
	x uint64
	i int32
}

func compareSweepKeys(a, b sweepKey) int {
	return cmp.Or(cmp.Compare(a.x, b.x), cmp.Compare(a.i, b.i))
}

// Arrangements of a fuzzed side, the shape argument's low two bits:
// the MinX values as given, ascending (which sortSweepWords returns at
// once) or descending.
const (
	sweepAsGiven = iota
	sweepAscending
	sweepDescending
)

// FuzzSweepWords: the word sort — radix path and early return alike —
// yields the permutation of slices.SortFunc(compareSweepKeys) for any
// finite MinX values. Positions start at an offset, as the cascade's
// item side starts after its tuples, and with shape bit 2 set the
// values split into two interleaved sides sorted apart, tuples and
// items as a shuffle delivers them. With shape bit 3 set, MinX ties
// break by a key other than the position — the positions reversed, as a
// cascade tuple's file position can run against its arrival — and the
// comparator sorts on (MinX, that key). The seeds are the comparator
// battery the word sort was first held to, and three with a tie key.
func FuzzSweepWords(f *testing.F) {
	rng := rand.New(rand.NewPCG(2013, 37))
	draw := func(n int, x func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = x()
		}
		return xs
	}
	negZero := math.Copysign(0, -1)
	for _, minXs := range [][]float64{
		{},
		{42},
		{2, 1},
		{0, negZero, 1, negZero, 0, -1, 0},
		draw(50, func() float64 { return 7.25 }),
		draw(400, func() float64 { return float64(rng.IntN(5)) }),
		// A cell's worth of coordinates: one exponent, span below 2³²
		// ulps only when the cell is narrow.
		draw(800, func() float64 { return 7800 + rng.Float64()*780 }),
		draw(300, func() float64 { return 1 + float64(rng.IntN(1<<20))*0x1p-52 }),
		// Spans far above 2³²: across zero, across exponents, and with
		// values that agree in every bit the shift keeps.
		draw(500, func() float64 { return rng.Float64()*200 - 100 }),
		draw(500, func() float64 { return math.Ldexp(rng.Float64(), rng.IntN(80)-40) }),
		draw(600, func() float64 { return float64(rng.IntN(6))*1000 + float64(rng.IntN(4))*0x1p-40 }),
		{math.MaxFloat64, -math.MaxFloat64, 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1},
		// Subnormals, on both sides of the signed zeros.
		{0x1p-1060, -0x1p-1070, 0x1p-1030, negZero, 0, -0x1p-1040, 0x1p-1074},
		// Equal-MinX runs under the shift: every value of a run is one
		// ulp from the next, far below what 32 kept bits resolve.
		draw(700, func() float64 { return math.Nextafter(float64(rng.IntN(3))*1e12, math.Inf(1)) }),
	} {
		raw := make([]byte, 0, 8*len(minXs))
		for _, x := range minXs {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
		}
		f.Add(raw, uint16(0), uint8(sweepAsGiven|4))
		f.Add(raw, uint16(len(minXs)), uint8(sweepAscending))
		f.Add(raw, uint16(3), uint8(sweepDescending|4))
	}
	tied := binary.LittleEndian.AppendUint64(nil, math.Float64bits(7.25))
	for _, x := range []float64{7.25, 1, 7.25, 0, 7.25, 1} {
		tied = binary.LittleEndian.AppendUint64(tied, math.Float64bits(x))
	}
	f.Add(tied, uint16(0), uint8(sweepAsGiven|8))
	f.Add(tied, uint16(2), uint8(sweepAscending|8))
	f.Add(tied, uint16(1), uint8(sweepDescending|4|8))
	f.Fuzz(func(t *testing.T, raw []byte, offset uint16, shape uint8) {
		var minXs []float64
		for ; len(raw) >= 8; raw = raw[8:] {
			if x := math.Float64frombits(binary.LittleEndian.Uint64(raw)); !math.IsNaN(x) && !math.IsInf(x, 0) {
				minXs = append(minXs, x)
			}
		}
		switch shape & 3 {
		case sweepAscending:
			slices.Sort(minXs)
		case sweepDescending:
			slices.Sort(minXs)
			slices.Reverse(minXs)
		}
		// Positions below the offset belong to no side; their keys must
		// not matter.
		base := int(offset)
		xs := make([]uint64, base+len(minXs))
		for i := range base {
			xs[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		for i, x := range minXs {
			xs[base+i] = sweepOrder(x)
		}
		sides := 1 + int(shape>>2&1)
		var tie func(i uint64) uint32
		key := func(i int) int32 { return int32(i) }
		if shape>>3&1 != 0 {
			tie = func(i uint64) uint32 { return uint32(len(xs)) - uint32(i) }
			key = func(i int) int32 { return int32(len(xs) - i) }
		}
		var buf []uint64
		for s := range sides {
			var side []uint64
			var want []sweepKey
			for i := base + s; i < len(xs); i += sides {
				side = append(side, uint64(i))
				want = append(want, sweepKey{xs[i], key(i)})
			}
			slices.SortFunc(want, compareSweepKeys)
			sortSweepWords(side, xs, tie, &buf)
			for k := range want {
				if got := key(int(uint32(side[k]))); got != want[k].i {
					t.Fatalf("side %d of %d: position %d holds the value keyed %d, the comparator sort puts %d there",
						s, sides, k, got, want[k].i)
				}
			}
		}
	})
}
