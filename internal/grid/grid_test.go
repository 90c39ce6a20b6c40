package grid

import (
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"mwsjoin/internal/geom"
)

// paperGrid reproduces the 4×4 partitioning of the paper's Figure 2:
// a 16-cell grid over [0,100]×[0,100]. Paper cell numbers are 1-based,
// CellIDs are 0-based, so paper cell n is CellID n-1.
func paperGrid(t testing.TB) *Partitioning {
	t.Helper()
	p, err := NewUniform(geom.Rect{X: 0, Y: 100, L: 100, B: 100}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cell converts the paper's 1-based cell numbers to CellIDs.
func cell(n int) CellID { return CellID(n - 1) }

func cells(ns ...int) []CellID {
	out := make([]CellID, len(ns))
	for i, n := range ns {
		out[i] = cell(n)
	}
	return out
}

func TestNewUniformValidation(t *testing.T) {
	bounds := geom.Rect{X: 0, Y: 10, L: 10, B: 10}
	if _, err := NewUniform(bounds, 0, 4); err == nil {
		t.Error("zero rows must fail")
	}
	if _, err := NewUniform(bounds, 4, -1); err == nil {
		t.Error("negative cols must fail")
	}
	if _, err := NewUniform(geom.Rect{X: 0, Y: 0, L: 0, B: 10}, 2, 2); err == nil {
		t.Error("zero-area bounds must fail")
	}
	if _, err := NewUniform(geom.Rect{X: math.NaN()}, 2, 2); err == nil {
		t.Error("NaN bounds must fail")
	}
}

func TestNewFromCutsValidation(t *testing.T) {
	if _, err := NewFromCuts([]float64{0}, []float64{0, 1}); err == nil {
		t.Error("single x cut must fail")
	}
	if _, err := NewFromCuts([]float64{0, 1, 1}, []float64{0, 1}); err == nil {
		t.Error("non-ascending cuts must fail")
	}
	if _, err := NewFromCuts([]float64{0, math.Inf(1)}, []float64{0, 1}); err == nil {
		t.Error("non-finite cut must fail")
	}
	p, err := NewFromCuts([]float64{0, 1, 5}, []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows() != 1 || p.Cols() != 2 || p.NumCells() != 2 {
		t.Errorf("got %d×%d grid, want 1×2", p.Rows(), p.Cols())
	}
}

func TestCellGeometry(t *testing.T) {
	p := paperGrid(t)
	if p.NumCells() != 16 {
		t.Fatalf("NumCells = %d, want 16", p.NumCells())
	}
	// Paper cell 1 is the top-left cell: [0,25] x [75,100].
	r := p.CellRect(cell(1))
	if r != (geom.Rect{X: 0, Y: 100, L: 25, B: 25}) {
		t.Errorf("cell 1 rect = %v", r)
	}
	// Paper cell 16 is the bottom-right cell.
	r = p.CellRect(cell(16))
	if r != (geom.Rect{X: 75, Y: 25, L: 25, B: 25}) {
		t.Errorf("cell 16 rect = %v", r)
	}
	if b := p.Bounds(); b != (geom.Rect{X: 0, Y: 100, L: 100, B: 100}) {
		t.Errorf("Bounds = %v", b)
	}
}

func TestCellOfOwnership(t *testing.T) {
	p := paperGrid(t)
	tests := []struct {
		pt   geom.Point
		want CellID
	}{
		{geom.Point{X: 10, Y: 90}, cell(1)},
		{geom.Point{X: 30, Y: 60}, cell(6)},
		// A vertical grid line belongs to the cell on its right.
		{geom.Point{X: 25, Y: 90}, cell(2)},
		// A horizontal grid line belongs to the cell below it.
		{geom.Point{X: 10, Y: 75}, cell(5)},
		// Every cell owns its own start point: cell 6's is (25, 75).
		{geom.Point{X: 25, Y: 75}, cell(6)},
		// Outer boundary points are clamped into edge cells.
		{geom.Point{X: 100, Y: 100}, cell(4)},
		{geom.Point{X: 0, Y: 0}, cell(13)},
		{geom.Point{X: 100, Y: 0}, cell(16)},
		// Points outside the bounds clamp to the nearest edge cell.
		{geom.Point{X: -5, Y: 200}, cell(1)},
		{geom.Point{X: 400, Y: 50}, cell(12)},
	}
	for _, tt := range tests {
		if got := p.CellOf(tt.pt); got != tt.want {
			t.Errorf("CellOf(%v) = %d, want %d", tt.pt, got+1, tt.want+1)
		}
	}
}

func TestRowColRoundTrip(t *testing.T) {
	p := paperGrid(t)
	for c := CellID(0); int(c) < p.NumCells(); c++ {
		row, col := p.RowCol(c)
		if p.id(row, col) != c {
			t.Fatalf("RowCol(%d) = (%d,%d) does not round-trip", c, row, col)
		}
		if !p.Valid(c) {
			t.Fatalf("Valid(%d) = false", c)
		}
	}
	if p.Valid(-1) || p.Valid(16) {
		t.Error("out-of-range ids must be invalid")
	}
}

// Figure 2(a)/2(c): rectangle r1 starts in cell 6 and extends into
// cell 7. Project returns 6; Split returns {6, 7}; Replicate(f1)
// returns cells 6-8, 10-12, 14-16.
func TestPaperFigure2Transforms(t *testing.T) {
	p := paperGrid(t)
	r1 := geom.Rect{X: 30, Y: 70, L: 30, B: 10} // starts in cell 6, reaches into cell 7

	if got := p.Project(r1); got != cell(6) {
		t.Errorf("Project(r1) = %d, want 6", got+1)
	}
	if got := p.Split(r1); !reflect.DeepEqual(got, cells(6, 7)) {
		t.Errorf("Split(r1) = %v, want cells 6,7", got)
	}
	if got := p.SplitCount(r1); got != 2 {
		t.Errorf("SplitCount(r1) = %d, want 2", got)
	}
	if !p.Crosses(r1) {
		t.Error("r1 must cross its cell boundary")
	}
	want := cells(6, 7, 8, 10, 11, 12, 14, 15, 16)
	if got := p.ReplicateF1(r1); !reflect.DeepEqual(got, want) {
		t.Errorf("ReplicateF1(r1) = %v, want %v", got, want)
	}
	if got := p.FourthQuadrantCount(r1); got != 9 {
		t.Errorf("FourthQuadrantCount(r1) = %d, want 9", got)
	}

	// Figure 2(c): Replicate(f2) with a small d keeps only cells
	// 6, 7, 10 and 11 — the 4th-quadrant cells within distance d.
	got := p.ReplicateF2(r1, 10, MetricEuclidean)
	if want := cells(6, 7, 10, 11); !reflect.DeepEqual(got, want) {
		t.Errorf("ReplicateF2(r1, 10) = %v, want %v", got, want)
	}
}

func TestSplitTouchingGridLine(t *testing.T) {
	p := paperGrid(t)
	// A closed rectangle whose right edge lies exactly on a grid line
	// shares that line with the next column, so Split includes it.
	r := geom.Rect{X: 10, Y: 90, L: 15, B: 5} // right edge at x=25
	if got := p.Split(r); !reflect.DeepEqual(got, cells(1, 2)) {
		t.Errorf("Split = %v, want cells 1,2", got)
	}
	if !p.Crosses(r) {
		t.Error("a rectangle touching a grid line crosses")
	}
	// A rectangle strictly inside a cell does not cross.
	in := geom.Rect{X: 10, Y: 90, L: 5, B: 5}
	if p.Crosses(in) {
		t.Error("interior rectangle must not cross")
	}
	// A degenerate point rectangle on the corner shared by cells
	// 1, 2, 5 and 6 splits onto all four of them.
	pt := geom.Rect{X: 25, Y: 75}
	if got := p.Split(pt); !reflect.DeepEqual(got, cells(1, 2, 5, 6)) {
		t.Errorf("Split(corner point) = %v, want cells 1,2,5,6", got)
	}
}

func TestSplitClampsOutOfBounds(t *testing.T) {
	p := paperGrid(t)
	r := geom.Rect{X: 90, Y: 10, L: 50, B: 50} // protrudes right and below
	if got := p.Split(r); !reflect.DeepEqual(got, cells(16)) {
		t.Errorf("Split = %v, want just cell 16", got)
	}
}

func TestReplicateF2Metrics(t *testing.T) {
	p := paperGrid(t)
	// A small rectangle in the top-left of cell 6.
	r := geom.Rect{X: 26, Y: 74, L: 2, B: 2}
	// With d just under the cell size, Euclidean excludes the diagonal
	// cell 11 region... compute: distance from r to cell 11 ([50,75]x
	// [25,50]) is hypot(50-28, 72-50) = hypot(22,22) ≈ 31.1; Chebyshev
	// is 22. Pick d = 25 to split the two metrics.
	d := 25.0
	eu := p.ReplicateF2(r, d, MetricEuclidean)
	ch := p.ReplicateF2(r, d, MetricChebyshev)
	if want := cells(6, 7, 10); !reflect.DeepEqual(eu, want) {
		t.Errorf("Euclidean f2 = %v, want %v", eu, want)
	}
	if want := cells(6, 7, 10, 11); !reflect.DeepEqual(ch, want) {
		t.Errorf("Chebyshev f2 = %v, want %v", ch, want)
	}
	if got := p.ReplicateF2(r, -1, MetricEuclidean); len(got) != 0 {
		t.Errorf("negative d must replicate nowhere, got %v", got)
	}
	// d = 0 keeps exactly the 4th-quadrant cells the rectangle touches.
	if got := p.ReplicateF2(r, 0, MetricEuclidean); !reflect.DeepEqual(got, cells(6)) {
		t.Errorf("f2 with d=0 = %v, want cell 6", got)
	}
}

func TestOtherCellWithin(t *testing.T) {
	p := paperGrid(t)
	center := geom.Rect{X: 35, Y: 65, L: 5, B: 5} // interior of cell 6
	own := p.Project(center)
	if p.OtherCellWithin(center, own, 4) {
		t.Error("no other cell within 4 of an interior rectangle")
	}
	if !p.OtherCellWithin(center, own, 10) {
		t.Error("cell 7 boundary is within 10")
	}
	// A crossing rectangle touches another cell, so distance 0 works.
	crossing := geom.Rect{X: 40, Y: 65, L: 20, B: 5}
	if !p.OtherCellWithin(crossing, p.Project(crossing), 0) {
		t.Error("crossing rectangle has another cell at distance 0")
	}
	if p.OtherCellWithin(center, own, -1) {
		t.Error("negative d must be false")
	}
}

func TestMetricString(t *testing.T) {
	if MetricEuclidean.String() != "euclidean" || MetricChebyshev.String() != "chebyshev" {
		t.Error("unexpected metric names")
	}
}

// randomGridRect avoids placing edges exactly on the 4×4 grid's cuts
// (multiples of 25): Split uses closed cells, so an edge on a cut also
// touches the neighbouring row/column, which would break the
// 4th-quadrant containment property below. Cut-aligned edges are
// exercised by the dedicated boundary tests instead.
func randomGridRect(rng *rand.Rand) geom.Rect {
	return geom.Rect{
		X: math.Floor(rng.Float64()*100) + 0.25,
		Y: math.Floor(rng.Float64()*100) + 0.25,
		L: math.Floor(rng.Float64() * 30),
		B: math.Floor(rng.Float64() * 30),
	}
}

func gridQuickCfg() *quick.Config {
	rng := rand.New(rand.NewPCG(11, 13))
	return &quick.Config{
		MaxCount: 2000,
		Values: func(vals []reflect.Value, _ *mrand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(randomGridRect(rng))
			}
		},
	}
}

// Property: Project is always among Split's cells, Split is a subset of
// ReplicateF1 for cells at/after the projection corner... precisely:
// every Split cell lies in the 4th quadrant of the rectangle, so
// Split ⊆ ReplicateF1.
func TestPropSplitContainsProjectAndWithinF1(t *testing.T) {
	p := paperGrid(t)
	prop := func(r geom.Rect) bool {
		proj := p.Project(r)
		split := p.Split(r)
		f1 := map[CellID]bool{}
		p.ForEachFourthQuadrant(r, func(c CellID) { f1[c] = true })
		foundProj := false
		for _, c := range split {
			if c == proj {
				foundProj = true
			}
			if !f1[c] {
				return false
			}
		}
		return foundProj
	}
	if err := quick.Check(prop, gridQuickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: f2 ⊆ f1, f2 grows with d, and f2 with a huge d equals f1.
func TestPropReplicateF2SubsetMonotone(t *testing.T) {
	p := paperGrid(t)
	for _, m := range []Metric{MetricEuclidean, MetricChebyshev} {
		prop := func(r geom.Rect) bool {
			f1 := p.ReplicateF1(r)
			f2small := p.ReplicateF2(r, 20, m)
			f2big := p.ReplicateF2(r, 60, m)
			f2max := p.ReplicateF2(r, 1000, m)
			if !subset(f2small, f2big) || !subset(f2big, f1) {
				return false
			}
			return reflect.DeepEqual(f2max, f1)
		}
		if err := quick.Check(prop, gridQuickCfg()); err != nil {
			t.Errorf("metric %v: %v", m, err)
		}
	}
}

// Property: every Split cell's rectangle actually overlaps r, and every
// cell not in Split either does not overlap r or lies outside the grid
// clamp region.
func TestPropSplitIsExactlyOverlapping(t *testing.T) {
	p := paperGrid(t)
	prop := func(r geom.Rect) bool {
		inSplit := map[CellID]bool{}
		p.ForEachSplit(r, func(c CellID) { inSplit[c] = true })
		for c := CellID(0); int(c) < p.NumCells(); c++ {
			if p.CellRect(c).Overlaps(r) != inSplit[c] {
				return false
			}
		}
		return true
	}
	// Restrict to in-bounds rectangles: clamping intentionally breaks
	// the equivalence outside the grid.
	rng := rand.New(rand.NewPCG(5, 9))
	cfg := &quick.Config{
		MaxCount: 1500,
		Values: func(vals []reflect.Value, _ *mrand.Rand) {
			r := geom.Rect{
				X: rng.Float64() * 80,
				Y: 20 + rng.Float64()*80,
				L: rng.Float64() * 20,
				B: rng.Float64() * 20,
			}
			vals[0] = reflect.ValueOf(r)
		},
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: CellOf is consistent with CellRect containment up to the
// half-open ownership rule: the owning cell's closed rectangle always
// contains the point (for in-bounds points).
func TestPropCellOfWithinCellRect(t *testing.T) {
	p := paperGrid(t)
	rng := rand.New(rand.NewPCG(17, 23))
	for i := 0; i < 4000; i++ {
		pt := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		c := p.CellOf(pt)
		r := p.CellRect(c)
		if pt.X < r.MinX() || pt.X > r.MaxX() || pt.Y < r.MinY() || pt.Y > r.MaxY() {
			t.Fatalf("CellOf(%v) = %d but cell rect %v does not contain it", pt, c, p.CellRect(c))
		}
	}
}

func subset(a, b []CellID) bool {
	set := map[CellID]bool{}
	for _, c := range b {
		set[c] = true
	}
	for _, c := range a {
		if !set[c] {
			return false
		}
	}
	return true
}

// BenchmarkSplit is the map side's per-rectangle cost — four cell-of
// lookups and the cells between them — on the uniform grid, where the
// arithmetic guess lands on the band, and on an adaptive one over
// clustered data, where it has to walk.
func BenchmarkSplit(b *testing.B) {
	uniform, _ := NewUniform(geom.Rect{X: 0, Y: 100000, L: 100000, B: 100000}, 8, 8)
	sample := clusteredSample(4000, 7)
	adaptive, err := NewAdaptive(sample, AdaptiveOptions{Target: 64})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	rects := make([]geom.Rect, 1024)
	for i := range rects {
		rects[i] = geom.Rect{X: rng.Float64() * 100000, Y: rng.Float64() * 100000, L: rng.Float64() * 100, B: rng.Float64() * 100}
	}
	for _, bc := range []struct {
		name  string
		p     *Partitioning
		rects []geom.Rect
	}{{"uniform", uniform, rects}, {"adaptive", adaptive, sample[:1024]}} {
		b.Run(bc.name, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				bc.p.ForEachSplit(bc.rects[i%1024], func(CellID) { n++ })
			}
			_ = n
		})
	}
}

func BenchmarkReplicateF2(b *testing.B) {
	p, _ := NewUniform(geom.Rect{X: 0, Y: 100000, L: 100000, B: 100000}, 8, 8)
	rng := rand.New(rand.NewPCG(1, 1))
	rects := make([]geom.Rect, 1024)
	for i := range rects {
		rects[i] = geom.Rect{X: rng.Float64() * 100000, Y: rng.Float64() * 100000, L: rng.Float64() * 100, B: rng.Float64() * 100}
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		p.ForEachReplicateF2(rects[i%1024], 300, MetricChebyshev, func(CellID) { n++ })
	}
	_ = n
}
