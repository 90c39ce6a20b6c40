package spatial

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mwsjoin/internal/geom"
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

// TestSweepWordsMatchComparatorSort: the word sort yields the
// permutation of slices.SortFunc(compareSweepKeys), for tuples and for
// items, whatever the MinX values are.
func TestSweepWordsMatchComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(2013, 37))
	draw := func(n int, x func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = x()
		}
		return xs
	}
	negZero := math.Copysign(0, -1)
	cases := map[string][]float64{
		"empty":        {},
		"single":       {42},
		"pair":         {2, 1},
		"signed-zeros": {0, negZero, 1, negZero, 0, -1, 0},
		"all-equal":    draw(50, func() float64 { return 7.25 }),
		"few-distinct": draw(400, func() float64 { return float64(rng.IntN(5)) }),
		// A cell's worth of coordinates: one exponent, span below 2³²
		// ulps only when the cell is narrow.
		"cell":   draw(800, func() float64 { return 7800 + rng.Float64()*780 }),
		"narrow": draw(300, func() float64 { return 1 + float64(rng.IntN(1<<20))*0x1p-52 }),
		// Spans far above 2³²: across zero, across exponents, and with
		// values that agree in every bit the shift keeps.
		"across-zero": draw(500, func() float64 { return rng.Float64()*200 - 100 }),
		"exponents":   draw(500, func() float64 { return math.Ldexp(rng.Float64(), rng.IntN(80)-40) }),
		"close-runs": draw(600, func() float64 {
			return float64(rng.IntN(6))*1000 + float64(rng.IntN(4))*0x1p-40
		}),
		"extremes": {math.MaxFloat64, -math.MaxFloat64, 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1},
	}
	for name, minXs := range cases {
		// Tuples and items interleaved by a coin, as a shuffle delivers
		// them.
		vals := make([]cascadeVal, len(minXs))
		xs := make([]uint64, len(minXs))
		for i, x := range minXs {
			vals[i] = cascadeVal{Rect: geom.Rect{X: x, Y: 1, L: 1, B: 1}, ID: int32(i), Slab: int32(rng.IntN(2)) - 1}
			xs[i] = sweepOrder(x)
		}
		var words []uint64
		for _, items := range []bool{false, true} {
			var want []sweepKey
			base := len(words)
			for i, v := range vals {
				if (v.Slab == itemSlab) == items {
					want = append(want, sweepKey{xs[i], int32(i)})
					words = append(words, uint64(i))
				}
			}
			slices.SortFunc(want, compareSweepKeys)
			sortSweepWords(words[base:], xs)
			got := words[base:]
			if len(got) != len(want) {
				t.Fatalf("%s items=%v: %d words for %d values", name, items, len(got), len(want))
			}
			for k := range want {
				if int32(uint32(got[k])) != want[k].i {
					t.Fatalf("%s items=%v: position %d holds value %d, the comparator sort puts %d there",
						name, items, k, uint32(got[k]), want[k].i)
				}
			}
		}
	}
}
