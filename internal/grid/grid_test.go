package grid

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

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
	if got := splitCells(p, r1); !reflect.DeepEqual(got, cells(6, 7)) {
		t.Errorf("Split(r1) = %v, want cells 6,7", got)
	}
	if got := p.SplitCount(r1); got != 2 {
		t.Errorf("SplitCount(r1) = %d, want 2", got)
	}
	if !p.Crosses(r1) {
		t.Error("r1 must cross its cell boundary")
	}
	want := cells(6, 7, 8, 10, 11, 12, 14, 15, 16)
	if got := f1Cells(p, r1); !reflect.DeepEqual(got, want) {
		t.Errorf("ReplicateF1(r1) = %v, want %v", got, want)
	}
	if got := p.FourthQuadrantCount(r1); got != 9 {
		t.Errorf("FourthQuadrantCount(r1) = %d, want 9", got)
	}

	// Figure 2(c): Replicate(f2) with a small d keeps only cells
	// 6, 7, 10 and 11 — the 4th-quadrant cells within distance d.
	got := f2Cells(p, r1, 10, MetricEuclidean)
	if want := cells(6, 7, 10, 11); !reflect.DeepEqual(got, want) {
		t.Errorf("ReplicateF2(r1, 10) = %v, want %v", got, want)
	}
}

func TestSplitTouchingGridLine(t *testing.T) {
	p := paperGrid(t)
	// A closed rectangle whose right edge lies exactly on a grid line
	// shares that line with the next column, so Split includes it.
	r := geom.Rect{X: 10, Y: 90, L: 15, B: 5} // right edge at x=25
	if got := splitCells(p, r); !reflect.DeepEqual(got, cells(1, 2)) {
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
	if got := splitCells(p, pt); !reflect.DeepEqual(got, cells(1, 2, 5, 6)) {
		t.Errorf("Split(corner point) = %v, want cells 1,2,5,6", got)
	}
}

func TestSplitClampsOutOfBounds(t *testing.T) {
	p := paperGrid(t)
	r := geom.Rect{X: 90, Y: 10, L: 50, B: 50} // protrudes right and below
	if got := splitCells(p, r); !reflect.DeepEqual(got, cells(16)) {
		t.Errorf("Split = %v, want just cell 16", got)
	}
}

func TestReplicateF2Metrics(t *testing.T) {
	p := paperGrid(t)
	// A small rectangle in the top-left of cell 6. The diagonal cell 11
	// ([50,75]×[25,50]) lies 22 from it on each axis: 31.1 Euclidean, 22
	// Chebyshev, so d = 25 splits the metrics.
	r := geom.Rect{X: 26, Y: 74, L: 2, B: 2}
	eu := f2Cells(p, r, 25, MetricEuclidean)
	ch := f2Cells(p, r, 25, MetricChebyshev)
	if want := cells(6, 7, 10); !reflect.DeepEqual(eu, want) {
		t.Errorf("Euclidean f2 = %v, want %v", eu, want)
	}
	if want := cells(6, 7, 10, 11); !reflect.DeepEqual(ch, want) {
		t.Errorf("Chebyshev f2 = %v, want %v", ch, want)
	}
	if got := f2Cells(p, r, -1, MetricEuclidean); len(got) != 0 {
		t.Errorf("negative d must replicate nowhere, got %v", got)
	}
	// d = 0 keeps exactly the 4th-quadrant cells the rectangle touches.
	if got := f2Cells(p, r, 0, MetricEuclidean); !reflect.DeepEqual(got, cells(6)) {
		t.Errorf("f2 with d=0 = %v, want cell 6", got)
	}
}

// TestReplicateF2ReachesOwnCellOnWideGrid: on a grid reaching 1e9, the
// bottom row's computed bottom edge and the grid's rounded extent sit
// ulps of 5e8 above a segment lying on the data's lowest y. f2 with
// d = 0 must still send the segment to its own cell and to the cell
// its far end touches (FuzzJoin found the miss: C-Rep-L lost both
// orders of the segment paired with a point at its start).
func TestReplicateF2ReachesOwnCellOnWideGrid(t *testing.T) {
	bottom := -0.29999996
	bounds := geom.RectFromCorners(geom.Point{X: 0, Y: bottom}, geom.Point{X: 840, Y: 1e9})
	p, err := NewUniform(bounds, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	seg := geom.Rect{X: 0, Y: bottom, L: 420, B: 0}
	if gap := p.CellRect(2).MinY() - seg.MinY(); !(gap > 0) {
		t.Fatalf("cell 2 reaches down to %v: the rounding this test is about did not happen (gap %g)", p.CellRect(2).MinY(), gap)
	}
	for _, m := range []Metric{MetricChebyshev, MetricEuclidean} {
		if got := f2Cells(p, seg, 0, m); !reflect.DeepEqual(got, []CellID{2, 3}) {
			t.Errorf("%v f2 of the segment = %v, want cells 2 and 3", m, got)
		}
		if got := f2Cells(p, geom.Rect{X: 0, Y: bottom}, 0, m); !reflect.DeepEqual(got, []CellID{2}) {
			t.Errorf("%v f2 of the point at its start = %v, want cell 2", m, got)
		}
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
