// Package sweep_test, not sweep: dataset reaches sweep through spatial,
// so an in-package test importing the generators would be a cycle.
package sweep_test

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/index"
	"mwsjoin/internal/sweep"
)

// unstripedLoop is JoinSorted as it was before the strips (and still is
// for one strip), kept here as the baseline the kernel is held against.
func unstripedLoop(as, bs []geom.Rect, d float64, fn func(i, j int) bool) {
	d2 := d * d
	start := 0
	for i := range as {
		a := as[i]
		aMin, aMax := a.X, a.X+a.L
		aTop, aBot := a.Y, a.Y-a.B
		for start < len(bs) && aMin-(bs[start].X+bs[start].L) > d {
			start++
		}
		for k := start; k < len(bs); k++ {
			b := bs[k]
			if b.X-aMax > d {
				break
			}
			dx := max(b.X-aMax, aMin-(b.X+b.L), 0)
			dy := max((b.Y-b.B)-aTop, aBot-b.Y, 0)
			if dx <= d && dy <= d && dx*dx+dy*dy <= d2 {
				if !fn(i, k) {
					return
				}
			}
		}
	}
}

// rtreeProbe is the dense-cell path the cascade took at or above 256
// records before the strips: bulk-load bs, probe per a, sort each
// probe's matches into sweep order.
func rtreeProbe(as, bs []geom.Rect, d float64, fn func(i, j int) bool) {
	t := index.NewRTree(bs)
	var ks []int
	for i := range as {
		ks = ks[:0]
		t.Probe(as[i], d, func(k int) bool {
			ks = append(ks, k)
			return true
		})
		sort.Ints(ks)
		for _, k := range ks {
			if !fn(i, k) {
				return
			}
		}
	}
}

// cellShape is one reducer's input as the cascade delivers it: the two
// sides of one cell of the uniform 8 × 8 grid, each ascending by MinX.
type cellShape struct {
	name   string
	as, bs []geom.Rect
	d      float64
}

// densestCell splits as (enlarged by d, as the cascade's map does) and
// bs over the uniform 8 × 8 grid on [0, side]² and returns the cell
// with the most records.
func densestCell(tb testing.TB, as, bs []geom.Rect, side, d float64) (ca, cb []geom.Rect) {
	tb.Helper()
	part, err := grid.NewUniform(geom.Rect{X: 0, Y: side, L: side, B: side}, 8, 8)
	if err != nil {
		tb.Fatal(err)
	}
	cellsA := make([][]geom.Rect, part.NumCells())
	cellsB := make([][]geom.Rect, part.NumCells())
	for _, r := range as {
		part.ForEachSplit(r.Enlarge(d), func(c grid.CellID) { cellsA[c] = append(cellsA[c], r) })
	}
	for _, r := range bs {
		part.ForEachSplit(r, func(c grid.CellID) { cellsB[c] = append(cellsB[c], r) })
	}
	best := 0
	for c := range cellsA {
		if len(cellsA[c])+len(cellsB[c]) > len(cellsA[best])+len(cellsB[best]) {
			best = c
		}
	}
	byMinX := func(a, b geom.Rect) int { return cmp.Compare(a.X, b.X) }
	slices.SortStableFunc(cellsA[best], byMinX)
	slices.SortStableFunc(cellsB[best], byMinX)
	return cellsA[best], cellsB[best]
}

// cellShapes draws the four shapes from the repository's generators:
// cascade_uniform's cell (two relations of the paper's synthetic data
// at the benchmark's density, 64 cells) at d = 0 and d = 8, the same
// density at 40 records a side, and the hottest cell of a Zipf draw
// dealt into two relations.
func cellShapes(tb testing.TB) []cellShape {
	tb.Helper()
	uniform := func(n int, d float64) (as, bs []geom.Rect) {
		p := dataset.PaperDefaults(n)
		side := 100_000 * math.Sqrt(float64(n)/1e6)
		p.XMax, p.YMax = side, side
		r1, err := dataset.Synthetic(p, 2013+101)
		if err != nil {
			tb.Fatal(err)
		}
		r2, err := dataset.Synthetic(p, 2013+202)
		if err != nil {
			tb.Fatal(err)
		}
		return densestCell(tb, r1, r2, side, d)
	}
	var shapes []cellShape
	as, bs := uniform(50_000, 0)
	shapes = append(shapes, cellShape{"uniform780", as, bs, 0})
	as, bs = uniform(50_000, 8)
	shapes = append(shapes, cellShape{"uniform780-d8", as, bs, 8})
	as, bs = uniform(40*64, 0)
	shapes = append(shapes, cellShape{"uniform40", as, bs, 0})

	z, err := dataset.ZipfClustered(dataset.SkewedDefaults(60_000), 2013)
	if err != nil {
		tb.Fatal(err)
	}
	var z1, z2 []geom.Rect
	for i, r := range z {
		if i%2 == 0 {
			z1 = append(z1, r)
		} else {
			z2 = append(z2, r)
		}
	}
	as, bs = densestCell(tb, z1, z2, 100_000, 0)
	shapes = append(shapes, cellShape{"zipf-hot", as, bs, 0})
	return shapes
}

// BenchmarkJoinSortedCells reports ns per a of the striped JoinSorted
// beside the two kernels it replaced in the cascade's reducer, on the
// cell shapes the repository's workloads produce. EXPERIMENTS.md
// "Striped sweep" has the table.
func BenchmarkJoinSortedCells(b *testing.B) {
	kernels := []struct {
		name string
		join func(as, bs []geom.Rect, d float64, fn func(i, j int) bool)
	}{
		{"strips", sweep.JoinSorted},
		{"loop", unstripedLoop},
		{"rtree", rtreeProbe},
	}
	for _, sh := range cellShapes(b) {
		for _, k := range kernels {
			b.Run(sh.name+"/"+k.name, func(b *testing.B) {
				pairs := 0
				for n := 0; n < b.N; n++ {
					pairs = 0
					k.join(sh.as, sh.bs, sh.d, func(int, int) bool { pairs++; return true })
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sh.as)), "ns/a")
				b.ReportMetric(float64(len(sh.as)), "as")
				b.ReportMetric(float64(len(sh.bs)), "bs")
				b.ReportMetric(float64(pairs), "pairs")
			})
		}
	}
}

// BenchmarkStripProbe reports ns per probe of the multi-way reducers'
// kernel on the uniform 780-record cell and the Zipf hot cell: one
// sweep.Build over the cell's bs, then one Probe per a, in sweep order.
// The build is in the figure, as a reducer pays it once per slot and
// cell.
func BenchmarkStripProbe(b *testing.B) {
	for _, sh := range cellShapes(b) {
		if sh.name != "uniform780" && sh.name != "zipf-hot" {
			continue
		}
		b.Run(sh.name, func(b *testing.B) {
			matches := 0
			count := func(int) bool { matches++; return true }
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				st := sweep.Build(sh.bs, sh.d)
				for i := range sh.as {
					st.Probe(sh.as[i], sh.d, count)
				}
				st.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sh.as)), "ns/probe")
			b.ReportMetric(float64(len(sh.bs)), "bs")
			b.ReportMetric(float64(matches/b.N), "matches")
		})
	}
}

// TestCellShapesAgree holds the three kernels of the benchmark to one
// pair sequence on its own shapes, so the table compares equal work.
func TestCellShapesAgree(t *testing.T) {
	for _, sh := range cellShapes(t) {
		collect := func(join func(as, bs []geom.Rect, d float64, fn func(i, j int) bool)) (out [][2]int) {
			join(sh.as, sh.bs, sh.d, func(i, j int) bool { out = append(out, [2]int{i, j}); return true })
			return out
		}
		want := collect(unstripedLoop)
		if len(want) == 0 {
			t.Errorf("%s: no pairs", sh.name)
		}
		if got := collect(sweep.JoinSorted); !slices.Equal(got, want) {
			t.Errorf("%s: striped sweep emits %d pairs, the loop %d, or in another order", sh.name, len(got), len(want))
		}
		if got := collect(rtreeProbe); !slices.Equal(got, want) {
			t.Errorf("%s: R-tree probe emits %d pairs, the loop %d, or in another order", sh.name, len(got), len(want))
		}
	}
}
