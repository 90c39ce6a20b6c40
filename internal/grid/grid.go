// Package grid implements the rectilinear partitioning of the 2D space
// and the three transform operations — Project, Split and Replicate —
// defined in §4 of the paper. A partitioning divides the space into
// disjoint partition-cells; one map-reduce reducer is responsible for
// each cell, so the transforms fully determine which reducers receive a
// rectangle.
//
// Cell ownership is half-open to make point location unambiguous: a
// cell owns x ∈ [left, right) and y ∈ (bottom, top], with the outermost
// boundaries clamped into the edge cells. Consequently a vertical grid
// line belongs to the cell on its right and a horizontal grid line to
// the cell below it, and every cell owns its own start-point (top-left
// corner). The Split operation, in contrast, follows the paper's "at
// least one point in common" definition on closed rectangles, so a
// rectangle that merely touches a grid line from the left still splits
// onto the cell owning that line; this keeps Split consistent with the
// closed Overlap predicate.
package grid

import (
	"fmt"
	"math"

	"mwsjoin/internal/geom"
)

// CellID identifies a partition-cell; cells are numbered row-major
// starting from the top-left cell, matching the figures in the paper
// (cell 1 in the paper is CellID 0 here). The id doubles as the
// intermediate key routed to reducers.
type CellID int32

// InvalidCell is returned by operations on empty regions.
const InvalidCell CellID = -1

// Metric selects the rectangle-to-rectangle distance used when limiting
// replication in Controlled-Replicate-in-Limit. The paper states its
// bounds with the Euclidean metric; the Chebyshev (L∞) metric is a
// provably safe superset (see DESIGN.md §3.2).
type Metric uint8

const (
	// MetricChebyshev measures the maximum per-axis gap. Default.
	MetricChebyshev Metric = iota
	// MetricEuclidean measures the closest-point distance, as in the
	// paper's Equation 2.
	MetricEuclidean
)

// Dist returns the distance between two rectangles under the metric.
func (m Metric) Dist(a, b geom.Rect) float64 {
	if m == MetricEuclidean {
		return a.Dist(b)
	}
	return a.ChebyshevDist(b)
}

func (m Metric) String() string {
	if m == MetricEuclidean {
		return "euclidean"
	}
	return "chebyshev"
}

// Partitioning is a rectilinear division of the bounded 2D space into
// rows × cols partition-cells. Cells in a row share a breadth and cells
// in a column share a length, but rows and columns may have different
// sizes (general rectilinear partitioning, §4).
type Partitioning struct {
	xCuts []float64 // ascending, len cols+1
	yCuts []float64 // ascending, len rows+1
	rows  int
	cols  int
	// Bands per unit of x and of y were all bands equally wide: where
	// colOf and rowOf start looking (see bandOf).
	xInv, yInv float64
}

// NewUniform builds a uniform rows × cols partitioning of the space
// bounds. This is the paper's experimental configuration: with k
// reducers the space is divided into a √k × √k grid (§5.1, §7.8.1).
func NewUniform(bounds geom.Rect, rows, cols int) (*Partitioning, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("grid: rows and cols must be positive, got %d×%d", rows, cols)
	}
	if err := bounds.Validate(); err != nil {
		return nil, err
	}
	if bounds.L <= 0 || bounds.B <= 0 {
		return nil, fmt.Errorf("grid: bounds %v must have positive area", bounds)
	}
	xCuts := make([]float64, cols+1)
	for i := 0; i <= cols; i++ {
		xCuts[i] = bounds.MinX() + bounds.L*float64(i)/float64(cols)
	}
	yCuts := make([]float64, rows+1)
	for i := 0; i <= rows; i++ {
		yCuts[i] = bounds.MinY() + bounds.B*float64(i)/float64(rows)
	}
	return NewFromCuts(xCuts, yCuts)
}

// NewFromCuts builds a general rectilinear partitioning from ascending
// cut coordinates. xCuts has one entry per column boundary (cols+1
// entries) and yCuts one per row boundary (rows+1 entries, bottom to
// top).
func NewFromCuts(xCuts, yCuts []float64) (*Partitioning, error) {
	if len(xCuts) < 2 || len(yCuts) < 2 {
		return nil, fmt.Errorf("grid: need at least 2 cuts per axis, got %d×%d", len(xCuts), len(yCuts))
	}
	for _, cuts := range [][]float64{xCuts, yCuts} {
		for i := 1; i < len(cuts); i++ {
			if !(cuts[i] > cuts[i-1]) {
				return nil, fmt.Errorf("grid: cuts must be strictly ascending, got %v", cuts)
			}
		}
		for _, c := range cuts {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("grid: non-finite cut in %v", cuts)
			}
		}
	}
	p := &Partitioning{
		xCuts: append([]float64(nil), xCuts...),
		yCuts: append([]float64(nil), yCuts...),
		rows:  len(yCuts) - 1,
		cols:  len(xCuts) - 1,
	}
	p.xInv = float64(p.cols) / (p.xCuts[p.cols] - p.xCuts[0])
	p.yInv = float64(p.rows) / (p.yCuts[p.rows] - p.yCuts[0])
	return p, nil
}

// Rows returns the number of cell rows.
func (p *Partitioning) Rows() int { return p.rows }

// Cols returns the number of cell columns.
func (p *Partitioning) Cols() int { return p.cols }

// NumCells returns the total number of partition-cells, i.e. the number
// of reducers the partitioning is designed for.
func (p *Partitioning) NumCells() int { return p.rows * p.cols }

// Bounds returns the full space covered by the partitioning.
func (p *Partitioning) Bounds() geom.Rect {
	return geom.RectFromCorners(
		geom.Point{X: p.xCuts[0], Y: p.yCuts[0]},
		geom.Point{X: p.xCuts[p.cols], Y: p.yCuts[p.rows]},
	)
}

// id assembles a CellID from a (row, col) index pair, row 0 at the top.
func (p *Partitioning) id(row, col int) CellID {
	return CellID(row*p.cols + col)
}

// RowCol splits a CellID into its (row, col) indices.
func (p *Partitioning) RowCol(c CellID) (row, col int) {
	return int(c) / p.cols, int(c) % p.cols
}

// bandOf returns the largest i < len(cuts)-1 with cuts[i] <= v, for a v
// in [cuts[0], cuts[len(cuts)-1]): the band of the ascending cuts that
// holds v. It guesses the band a uniform division would give — inv is
// bands per unit — and walks from there, so on uniform cuts it is a
// multiplication and a comparison or two, and on any cuts it returns
// what a binary search does: the guess only decides where the walk
// starts, the comparisons against the cuts decide where it ends.
func bandOf(cuts []float64, inv, v float64) int {
	last := len(cuts) - 2
	i := 0
	// A product that is not a number (an infinite span times a zero
	// inv) starts the walk at 0.
	if g := (v - cuts[0]) * inv; g >= float64(last) {
		i = last
	} else if g > 0 {
		i = int(g)
	}
	for v < cuts[i] {
		i--
	}
	for i < last && v >= cuts[i+1] {
		i++
	}
	return i
}

// colOf locates the column owning coordinate x ([left, right) ownership
// with boundary clamping): vertical grid lines belong to the cell on
// their right.
func (p *Partitioning) colOf(x float64) int {
	if x < p.xCuts[0] {
		return 0
	}
	if x >= p.xCuts[p.cols] {
		return p.cols - 1
	}
	return bandOf(p.xCuts, p.xInv, x)
}

// rowOf locates the row owning coordinate y ((bottom, top] ownership
// with boundary clamping). Row 0 is the topmost row; a horizontal grid
// line belongs to the cell below it.
func (p *Partitioning) rowOf(y float64) int {
	if y <= p.yCuts[0] {
		return p.rows - 1
	}
	if y >= p.yCuts[p.rows] {
		return 0
	}
	// y lies in the band [yCuts[i], yCuts[i+1]) and belongs to the row
	// under its upper cut, unless it is the lower cut itself.
	i := bandOf(p.yCuts, p.yInv, y)
	if y == p.yCuts[i] {
		i--
	}
	return p.rows - 1 - i
}

// CellOf returns the cell owning point pt, clamped into the grid for
// points outside the bounds.
func (p *Partitioning) CellOf(pt geom.Point) CellID {
	return p.id(p.rowOf(pt.Y), p.colOf(pt.X))
}

// CellRect returns the closed rectangle spanned by cell c.
func (p *Partitioning) CellRect(c CellID) geom.Rect {
	row, col := p.RowCol(c)
	top := p.yCuts[p.rows-row]
	bottom := p.yCuts[p.rows-row-1]
	return geom.Rect{X: p.xCuts[col], Y: top, L: p.xCuts[col+1] - p.xCuts[col], B: top - bottom}
}

// Project implements the Project transform of §4: it returns the cell
// containing the start-point of the rectangle, written c_u in the
// paper.
func (p *Partitioning) Project(r geom.Rect) CellID {
	return p.CellOf(r.Start())
}

// splitRange computes the inclusive (row, col) index ranges of the
// cells the closed rectangle r has at least one point in common with.
// Cells are closed for this purpose (§4: "at least one point in
// common"), so an edge lying exactly on a grid cut touches the cells on
// both sides of it.
func (p *Partitioning) splitRange(r geom.Rect) (rowLo, rowHi, colLo, colHi int) {
	// The near edges are looked up; the far ones are walked to from
	// there, which is colOf(MaxX) and rowOf(MinY) (they own cuts to the
	// right column and the row below) in as many steps as the rectangle
	// spans cells.
	colLo = p.colOf(r.MinX())
	colHi = colLo
	for maxX := r.MaxX(); colHi < p.cols-1 && maxX >= p.xCuts[colHi+1]; {
		colHi++
	}
	if colLo > 0 && p.xCuts[colLo] == r.MinX() {
		colLo-- // left edge on a cut also touches the column to its left
	}
	rowLo = p.rowOf(r.MaxY())
	rowHi = rowLo
	for minY := r.MinY(); rowHi < p.rows-1 && minY <= p.yCuts[p.rows-rowHi-1]; {
		rowHi++
	}
	if rowLo > 0 && p.yCuts[p.rows-rowLo] == r.MaxY() {
		rowLo-- // top edge on a cut also touches the row above
	}
	return rowLo, rowHi, colLo, colHi
}

// ForEachSplit invokes fn for every cell produced by the Split
// transform of §4: all partition-cells that share at least one point
// with the closed rectangle r. Cells are visited in ascending CellID
// order. Rectangles extending beyond the bounds are clamped into the
// edge cells.
func (p *Partitioning) ForEachSplit(r geom.Rect, fn func(CellID)) {
	rowLo, rowHi, colLo, colHi := p.splitRange(r)
	for row := rowLo; row <= rowHi; row++ {
		for col := colLo; col <= colHi; col++ {
			fn(p.id(row, col))
		}
	}
}

// SplitCount returns the number of cells Split would produce without
// materialising them.
func (p *Partitioning) SplitCount(r geom.Rect) int {
	rowLo, rowHi, colLo, colHi := p.splitRange(r)
	return (rowHi - rowLo + 1) * (colHi - colLo + 1)
}

// Crosses reports whether the rectangle has at least one point in
// common with more than one partition-cell — the condition C2 test of
// §7.4 ("rectangle u crosses the boundary of partition-cell c").
func (p *Partitioning) Crosses(r geom.Rect) bool {
	return p.SplitCount(r) > 1
}

// ForEachFourthQuadrant invokes fn for every cell in the 4th quadrant
// with respect to rectangle r (§4): all cells c with c.x ≥ c_u.x and
// c.y ≤ c_u.y where c_u is the cell of r. This is the replication
// function f1. Cells are visited in ascending CellID order; the cell of
// r itself is included.
func (p *Partitioning) ForEachFourthQuadrant(r geom.Rect, fn func(CellID)) {
	row0, col0 := p.RowCol(p.Project(r))
	for row := row0; row < p.rows; row++ {
		for col := col0; col < p.cols; col++ {
			fn(p.id(row, col))
		}
	}
}

// FourthQuadrantCount returns |C4(r)| without materialising the cells.
func (p *Partitioning) FourthQuadrantCount(r geom.Rect) int {
	row0, col0 := p.RowCol(p.Project(r))
	return (p.rows - row0) * (p.cols - col0)
}

// ForEachReplicateF2 invokes fn for every cell in the 4th quadrant with
// respect to r that is within distance d of r under the given metric —
// the replication function f2 of §4 used by Controlled-Replicate-in-
// Limit. Cells are visited in ascending CellID order.
//
// The radius is a bound over the reals, and every step deciding it in
// float64 rounds: the predicates a tuple's members pass, the diagonals
// and sums of the radius, a cell's far edges computed as X+L and Y−B,
// and the clamp of a rectangle that rounding left just outside the
// grid. A cell therefore qualifies within a slack of 2⁻⁴⁰ of the
// magnitudes involved, as the mark round's band does (inMarkBand in
// package spatial): a cell shipped to in excess costs a copy, one
// missed costs the tuples whose duplicate-avoidance point it owns.
// The magnitudes are the grid's as well as r's: a cell edge and the
// grid's own extent round by ulps of the cuts, which can be far larger
// than r's (a segment near the origin on a grid reaching 1e9).
func (p *Partitioning) ForEachReplicateF2(r geom.Rect, d float64, m Metric, fn func(CellID)) {
	if d < 0 {
		return
	}
	d = p.slack(r, d)
	row0, col0 := p.RowCol(p.Project(r))
	// Cells further than d from r on either axis cannot qualify under
	// either metric, so restrict the scan to the enlarged bounding box.
	_, rowHi, _, colHi := p.splitRange(r.Enlarge(d))
	if rowHi < row0 {
		rowHi = row0
	}
	if colHi < col0 {
		colHi = col0
	}
	cell := geom.Rect{}
	for row := row0; row <= rowHi; row++ {
		for col := col0; col <= colHi; col++ {
			cell = p.CellRect(p.id(row, col))
			if m.Dist(cell, r) <= d {
				fn(p.id(row, col))
			}
		}
	}
}

// slack returns d widened by 2⁻⁴⁰ of the magnitudes a distance from r
// to a cell rounds by (ForEachReplicateF2).
func (p *Partitioning) slack(r geom.Rect, d float64) float64 {
	cuts := math.Abs(p.xCuts[0]) + math.Abs(p.xCuts[p.cols]) + math.Abs(p.yCuts[0]) + math.Abs(p.yCuts[p.rows])
	return d + (math.Abs(r.X)+math.Abs(r.Y)+r.L+r.B+cuts+d)*0x1p-40
}

// OtherCellWithin reports whether some cell different from exclude is
// within Euclidean distance d of the rectangle — the condition C2 test
// for Range predicates (§8): a rectangle starting in cell c can have a
// range-d relationship with a rectangle starting elsewhere only if a
// cell c' ≠ c is within distance d of it. A cell qualifies within f2's
// slack, so one whose computed edge lies an ulp off its cut is not missed.
func (p *Partitioning) OtherCellWithin(r geom.Rect, exclude CellID, d float64) bool {
	if d < 0 {
		return false
	}
	d = p.slack(r, d)
	rowLo, rowHi, colLo, colHi := p.splitRange(r.Enlarge(d))
	for row := rowLo; row <= rowHi; row++ {
		for col := colLo; col <= colHi; col++ {
			id := p.id(row, col)
			if id == exclude {
				continue
			}
			if p.CellRect(id).Dist(r) <= d {
				return true
			}
		}
	}
	return false
}

// String describes the partitioning.
func (p *Partitioning) String() string {
	return fmt.Sprintf("grid %d×%d over %v", p.rows, p.cols, p.Bounds())
}
