// Package geom implements the planar geometry substrate of the
// reproduction: points and axis-aligned rectangles under the paper's
// object model (§1.1 of "Processing Multi-Way Spatial Joins on
// Map-Reduce", EDBT 2013).
//
// A rectangle is represented as (x, y, l, b) where (x, y) are the
// coordinates of the top-left vertex — the start-point — while l and b
// are the length (extent along +x) and breadth (extent along -y). The y
// axis grows upward, so a rectangle spans [x, x+l] × [y-b, y]. All
// predicates treat rectangles as closed point sets: rectangles that
// share only an edge or a corner still overlap, and the distance
// between touching rectangles is zero. This matches the MBR filter
// semantics of the paper, where the filter step must never drop a pair
// that the refinement step could accept.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Rect is an axis-aligned rectangle in the paper's (x, y, l, b)
// representation: (X, Y) is the top-left vertex (the start-point), L is
// the horizontal extent and B the vertical extent. The zero Rect is the
// degenerate point rectangle at the origin, which is valid.
type Rect struct {
	X, Y float64 // start-point (top-left vertex)
	L, B float64 // length (along +x) and breadth (along -y)
}

// NewRect builds a rectangle from its start-point and dimensions. It
// returns an error when either dimension is negative or any field is
// NaN/Inf, so that malformed input data fails loudly at parse time
// instead of corrupting join results.
func NewRect(x, y, l, b float64) (Rect, error) {
	r := Rect{X: x, Y: y, L: l, B: b}
	if err := r.Validate(); err != nil {
		return Rect{}, err
	}
	return r, nil
}

// RectFromCorners builds the rectangle spanning the two given corner
// points, in any order. Degenerate (zero-area) rectangles are allowed:
// points and segments are valid MBRs.
func RectFromCorners(p, q Point) Rect {
	return Rect{
		X: math.Min(p.X, q.X),
		Y: math.Max(p.Y, q.Y),
		L: math.Abs(p.X - q.X),
		B: math.Abs(p.Y - q.Y),
	}
}

// Validate reports whether the rectangle is well formed: finite fields
// and non-negative dimensions.
func (r Rect) Validate() error {
	for _, v := range [4]float64{r.X, r.Y, r.L, r.B} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("geom: rectangle %v has non-finite field", r)
		}
	}
	if r.L < 0 || r.B < 0 {
		return fmt.Errorf("geom: rectangle %v has negative dimension", r)
	}
	return nil
}

// Start returns the start-point (top-left vertex) of the rectangle.
func (r Rect) Start() Point { return Point{r.X, r.Y} }

// MinX returns the left edge coordinate.
func (r Rect) MinX() float64 { return r.X }

// MaxX returns the right edge coordinate.
func (r Rect) MaxX() float64 { return r.X + r.L }

// MinY returns the bottom edge coordinate.
func (r Rect) MinY() float64 { return r.Y - r.B }

// MaxY returns the top edge coordinate.
func (r Rect) MaxY() float64 { return r.Y }

// Center returns the center point of the rectangle.
func (r Rect) Center() Point { return Point{r.X + r.L/2, r.Y - r.B/2} }

// Area returns the area of the rectangle.
func (r Rect) Area() float64 { return r.L * r.B }

// Diagonal returns the length of the rectangle's diagonal. The paper's
// Controlled-Replicate-in-Limit bounds are expressed in terms of the
// maximum diagonal d_max over a relation (§7.9).
func (r Rect) Diagonal() float64 { return math.Hypot(r.L, r.B) }

// Overlaps implements the paper's Overlap predicate on closed
// rectangles: true when the two rectangles share at least one point,
// including boundary contact.
func (r Rect) Overlaps(s Rect) bool {
	return r.MinX() <= s.MaxX() && s.MinX() <= r.MaxX() &&
		r.MinY() <= s.MaxY() && s.MinY() <= r.MaxY()
}

// Intersection returns the rectangle common to r and s and whether the
// two rectangles overlap at all. When they touch only along an edge or
// at a corner the returned rectangle is degenerate (zero length and/or
// breadth), which is exactly what the §5.2 duplicate-avoidance strategy
// needs: the start-point of the (possibly degenerate) overlap area
// designates the single reducer that reports the pair.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	if !r.Overlaps(s) {
		return Rect{}, false
	}
	minX := math.Max(r.MinX(), s.MinX())
	maxX := math.Min(r.MaxX(), s.MaxX())
	maxY := math.Min(r.MaxY(), s.MaxY())
	minY := math.Max(r.MinY(), s.MinY())
	return Rect{X: minX, Y: maxY, L: maxX - minX, B: maxY - minY}, true
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	minX := math.Min(r.MinX(), s.MinX())
	maxX := math.Max(r.MaxX(), s.MaxX())
	minY := math.Min(r.MinY(), s.MinY())
	maxY := math.Max(r.MaxY(), s.MaxY())
	return Rect{X: minX, Y: maxY, L: maxX - minX, B: maxY - minY}
}

// axisGap returns the separation between the intervals [alo, ahi] and
// [blo, bhi], or 0 when they intersect.
func axisGap(alo, ahi, blo, bhi float64) float64 {
	switch {
	case ahi < blo:
		return blo - ahi
	case bhi < alo:
		return alo - bhi
	default:
		return 0
	}
}

// Dist returns the minimum Euclidean distance between the closed
// rectangles r and s; it is 0 when they overlap. This is the distance
// used by the Range predicate (§1.2): Range(r1, r2, d) holds when the
// closest pair of points of the two rectangles is within d.
func (r Rect) Dist(s Rect) float64 {
	dx := axisGap(r.MinX(), r.MaxX(), s.MinX(), s.MaxX())
	dy := axisGap(r.MinY(), r.MaxY(), s.MinY(), s.MaxY())
	if dx == 0 {
		return dy
	}
	if dy == 0 {
		return dx
	}
	return math.Hypot(dx, dy)
}

// ChebyshevDist returns the minimum L∞ (max-axis) distance between the
// closed rectangles. It is used as the provably safe replication-limit
// metric for Controlled-Replicate-in-Limit (DESIGN.md §3.2); it never
// exceeds the Euclidean distance.
func (r Rect) ChebyshevDist(s Rect) float64 {
	dx := axisGap(r.MinX(), r.MaxX(), s.MinX(), s.MaxX())
	dy := axisGap(r.MinY(), r.MaxY(), s.MinY(), s.MaxY())
	return math.Max(dx, dy)
}

// WithinDist implements the Range(r, s, d) predicate: true when the
// minimum distance between the rectangles is at most d. It avoids the
// square root of Dist by comparing squared axis gaps.
func (r Rect) WithinDist(s Rect, d float64) bool {
	if d < 0 {
		return false
	}
	dx := axisGap(r.MinX(), r.MaxX(), s.MinX(), s.MaxX())
	if dx > d {
		return false
	}
	dy := axisGap(r.MinY(), r.MaxY(), s.MinY(), s.MaxY())
	if dy > d {
		return false
	}
	return dx*dx+dy*dy <= d*d
}

// Enlarge returns the rectangle grown by d units on every side: the
// top-left vertex moves to (x−d, y+d) and the bottom-right vertex to
// (x₂+d, y₂−d), exactly the §5.3 construction used to process Range
// joins. Enlarging by a negative d shrinks the rectangle and panics if
// the result would be malformed, since no caller has a legitimate use
// for that.
func (r Rect) Enlarge(d float64) Rect {
	e := Rect{X: r.X - d, Y: r.Y + d, L: r.L + 2*d, B: r.B + 2*d}
	if e.L < 0 || e.B < 0 {
		panic(fmt.Sprintf("geom: Enlarge(%v) by %v yields negative dimensions", r, d))
	}
	return e
}

// EnlargeFactor scales the rectangle's length and breadth by the factor
// k, keeping the center fixed — the §7.8.6 construction used to derive
// progressively denser variants of the California road data. k must be
// non-negative.
func (r Rect) EnlargeFactor(k float64) Rect {
	if k < 0 {
		panic(fmt.Sprintf("geom: EnlargeFactor(%v) with negative factor %v", r, k))
	}
	growX := r.L * (k - 1) / 2
	growY := r.B * (k - 1) / 2
	return Rect{X: r.X - growX, Y: r.Y + growY, L: r.L * k, B: r.B * k}
}

// String renders the rectangle in the paper's (x, y, l, b) notation.
func (r Rect) String() string {
	return fmt.Sprintf("(%g, %g, %g, %g)", r.X, r.Y, r.L, r.B)
}
