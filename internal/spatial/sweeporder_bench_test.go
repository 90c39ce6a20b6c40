package spatial

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mwsjoin/internal/geom"
)

// BenchmarkSweepOrder times the sweep order where it is made and where
// it is only checked:
//
//   - relation/50000 lays out one 50,000-rectangle relation in sweep
//     order (stageRows: the word sort of the whole relation, then its
//     rows in that order) — what Summarized pays once per relation, and
//     a cluster worker once per relation per query;
//   - cell/staged-800 is one slot of a dense cell as the staged files
//     deliver it, already in sweep order: sortSweepWords' O(n) check;
//   - cell/unsorted-800 is the same slot in an order no staged file
//     gives, the radix sort the cascade's later tuple sides still pay.
//
// The relation is cascade_uniform's (the paper's density, dimensions up
// to 100) and a cell is what one of its 8 × 8 cells holds of it.
func BenchmarkSweepOrder(b *testing.B) {
	const n, side, cell = 50_000, 22_360, 800
	rng := rand.New(rand.NewPCG(2013, 0x7377))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: int32(i), R: geom.Rect{X: rng.Float64() * side, Y: rng.Float64() * side, L: 100 * rng.Float64(), B: 100 * rng.Float64()}}
	}
	b.Run("relation/50000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stageRows(items)
		}
	})

	minXs := make([]float64, cell)
	for i := range minXs {
		minXs[i] = 7800 + 780*rng.Float64()
	}
	staged := slices.Clone(minXs)
	slices.Sort(staged)
	for _, c := range []struct {
		name    string
		arrival []float64
	}{{"staged-800", staged}, {"unsorted-800", minXs}} {
		xs := make([]uint64, cell)
		positions := make([]uint64, cell)
		for i, x := range c.arrival {
			xs[i], positions[i] = sweepOrder(x), uint64(i)
		}
		b.Run("cell/"+c.name, func(b *testing.B) {
			words := make([]uint64, cell)
			var buf []uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(words, positions)
				sortSweepWords(words, xs, nil, &buf)
			}
		})
	}
}
