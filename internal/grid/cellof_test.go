package grid

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"mwsjoin/internal/geom"
)

// searchColOf and searchRowOf are colOf and rowOf as a binary search
// over the cuts — the definition the arithmetic guess-and-walk must
// reproduce for every float64.
func searchColOf(p *Partitioning, x float64) int {
	if x < p.xCuts[0] {
		return 0
	}
	if x >= p.xCuts[p.cols] {
		return p.cols - 1
	}
	// First cut >= x: the owning column when the cut equals x (vertical
	// grid lines belong to the cell on their right), else one past it.
	i := sort.SearchFloat64s(p.xCuts, x)
	if p.xCuts[i] == x {
		return i
	}
	return i - 1
}

func searchRowOf(p *Partitioning, y float64) int {
	if y <= p.yCuts[0] {
		return p.rows - 1
	}
	if y > p.yCuts[p.rows] {
		return 0
	}
	// Smallest i with yCuts[i] >= y; y belongs to (yCuts[i-1], yCuts[i]].
	return p.rows - sort.SearchFloat64s(p.yCuts, y)
}

// searchSplitRange is splitRange over the two searches.
func searchSplitRange(p *Partitioning, r geom.Rect) (rowLo, rowHi, colLo, colHi int) {
	colLo = searchColOf(p, r.MinX())
	if colLo > 0 && p.xCuts[colLo] == r.MinX() {
		colLo--
	}
	colHi = searchColOf(p, r.MaxX())
	rowLo = searchRowOf(p, r.MaxY())
	if rowLo > 0 && p.yCuts[p.rows-rowLo] == r.MaxY() {
		rowLo--
	}
	rowHi = searchRowOf(p, r.MinY())
	return rowLo, rowHi, colLo, colHi
}

// cellOfGrids are partitionings of each construction: uniform (one
// cell, the benchmark's 8 × 8, bounds off the origin), adaptive over a
// clustered sample, and hand-cut — bands a uniform guess lands far
// from, a band one ulp wide, and a span whose width overflows.
func cellOfGrids(t testing.TB) map[string]*Partitioning {
	t.Helper()
	must := func(p *Partitioning, err error) *Partitioning {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return map[string]*Partitioning{
		"uniform-1x1": must(NewUniform(geom.Rect{X: 0, Y: 10, L: 10, B: 10}, 1, 1)),
		"uniform-8x8": must(NewUniform(geom.Rect{X: 0, Y: 22360.68, L: 22360.68, B: 22360.68}, 8, 8)),
		"uniform-off": must(NewUniform(geom.Rect{X: -1e6 / 3, Y: 7, L: 1e6, B: 1e-3}, 5, 7)),
		"adaptive-64": must(NewAdaptive(clusteredSample(4000, 7), AdaptiveOptions{Target: 64})),
		"adaptive-1k": must(NewAdaptive(clusteredSample(20000, 9), AdaptiveOptions{Target: 1024})),
		"cuts-skewed": must(NewFromCuts(
			[]float64{0, 1, 2, 3, 4, 5, 6, 7, 1000},
			[]float64{-1000, -3, -2, -1, 0, math.Nextafter(0, 1), 1})),
		"cuts-huge": must(NewFromCuts(
			[]float64{-math.MaxFloat64, -1, 0, 1, math.MaxFloat64},
			[]float64{-math.MaxFloat64, 0, math.MaxFloat64})),
	}
}

// cellOfProbes returns the coordinates worth asking about on one axis:
// every cut, its neighbours one ulp either side, the ends of the float
// line, values out of bounds, and a random spread over and around the
// cuts.
func cellOfProbes(cuts []float64, rng *rand.Rand) []float64 {
	vs := []float64{
		math.Inf(-1), math.Inf(1), -math.MaxFloat64, math.MaxFloat64,
		math.Nextafter(math.Inf(-1), 0), math.Nextafter(math.Inf(1), 0),
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	}
	lo, hi := cuts[0], cuts[len(cuts)-1]
	for _, c := range cuts {
		vs = append(vs, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
	}
	for i := 0; i < 2000; i++ {
		// Half over the grid, half in a band three spans wide around it.
		f := rng.Float64()
		if i%2 == 1 {
			f = 3*f - 1
		}
		// lo*(1-f) + hi*f rather than lo + f*(hi-lo): the span may
		// overflow.
		vs = append(vs, lo*(1-f)+hi*f)
	}
	for i := 0; i+1 < len(cuts); i++ {
		vs = append(vs, cuts[i]/2+cuts[i+1]/2)
	}
	return vs
}

// TestCellOfMatchesBinarySearch: colOf and rowOf answer what a binary
// search over the cuts answers, for every construction of grid and
// every kind of coordinate, and splitRange — what every transform is
// built on — what it answers over those searches.
func TestCellOfMatchesBinarySearch(t *testing.T) {
	for name, p := range cellOfGrids(t) {
		rng := rand.New(rand.NewPCG(2013, 31))
		xs, ys := cellOfProbes(p.xCuts, rng), cellOfProbes(p.yCuts, rng)
		for _, x := range xs {
			if got, want := p.colOf(x), searchColOf(p, x); got != want {
				t.Errorf("%s: colOf(%v) = %d, binary search says %d (cuts %v)", name, x, got, want, p.xCuts)
			}
		}
		for _, y := range ys {
			if got, want := p.rowOf(y), searchRowOf(p, y); got != want {
				t.Errorf("%s: rowOf(%v) = %d, binary search says %d (cuts %v)", name, y, got, want, p.yCuts)
			}
		}
		// Rectangles between probes: edges on cuts, beside them and out
		// of bounds, degenerate ones included.
		for i := 0; i < 4000; i++ {
			x1, x2 := xs[rng.IntN(len(xs))], xs[rng.IntN(len(xs))]
			y1, y2 := ys[rng.IntN(len(ys))], ys[rng.IntN(len(ys))]
			if math.IsInf(x1, 0) || math.IsInf(x2, 0) || math.IsInf(y1, 0) || math.IsInf(y2, 0) {
				continue
			}
			r := geom.RectFromCorners(geom.Point{X: x1, Y: y1}, geom.Point{X: x2, Y: y2})
			rowLo, rowHi, colLo, colHi := p.splitRange(r)
			wRowLo, wRowHi, wColLo, wColHi := searchSplitRange(p, r)
			if rowLo != wRowLo || rowHi != wRowHi || colLo != wColLo || colHi != wColHi {
				t.Fatalf("%s: splitRange(%v) = rows %d–%d cols %d–%d, over binary searches rows %d–%d cols %d–%d",
					name, r, rowLo, rowHi, colLo, colHi, wRowLo, wRowHi, wColLo, wColHi)
			}
		}
	}
}
