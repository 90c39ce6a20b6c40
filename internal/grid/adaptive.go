package grid

import (
	"fmt"
	"math"
	"sort"

	"mwsjoin/internal/geom"
)

// AdaptiveOptions tunes NewAdaptive.
type AdaptiveOptions struct {
	// Target is the desired number of partition-cells (one reducer per
	// cell); ≤ 0 uses the paper's 64-reducer default. The result never
	// has more than Target cells (cold rows/columns are merged away) but
	// may have fewer when the sample cannot support the resolution.
	Target int
	// SplitThreshold scales the per-region sample capacity: a region
	// keeps splitting while it holds more than SplitThreshold ×
	// len(sample)/Target sample start-points. 1.0 (the default, used
	// when ≤ 0) splits hot regions down to an even per-cell share;
	// smaller values split more aggressively before the merge pass.
	SplitThreshold float64
	// MaxDepth bounds the split recursion; ≤ 0 uses 24.
	MaxDepth int
	// Bounds is the space the partitioning covers. Zero-area bounds use
	// the sample's bounding box (degenerate axes are widened by 1, as
	// the uniform default partitioning does).
	Bounds geom.Rect
}

// NewAdaptive builds a skew-aware rectilinear partitioning from a
// sample of the workload's rectangles: a quadtree-style recursion
// splits hot regions at the median start-point coordinates until every
// region holds at most its capacity of sample points, the split
// coordinates are flattened into global column/row cuts (the §4
// definition requires cells to share breadths within a row and lengths
// within a column, so a rectilinear grid is the finest structure that
// keys through the shuffle unchanged), and cold sibling columns/rows
// are merged — lowest combined sample load first — until at most
// Target cells remain. The construction is deterministic in the sample
// order and options.
func NewAdaptive(sample []geom.Rect, opts AdaptiveOptions) (*Partitioning, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("grid: adaptive partitioning needs at least one sample rectangle")
	}
	target := opts.Target
	if target <= 0 {
		target = 64
	}
	thr := opts.SplitThreshold
	if thr <= 0 {
		thr = 1
	}
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 24
	}
	bounds := opts.Bounds
	if bounds.Area() <= 0 {
		bounds = sample[0]
		for _, r := range sample[1:] {
			bounds = bounds.Union(r)
		}
	}
	minX, maxX := bounds.MinX(), bounds.MaxX()
	minY, maxY := bounds.MinY(), bounds.MaxY()
	if maxX <= minX {
		maxX = minX + 1
	}
	if maxY <= minY {
		maxY = minY + 1
	}

	pts := make([]geom.Point, len(sample))
	for i, r := range sample {
		pts[i] = r.Start()
	}
	capacity := int(math.Ceil(thr * float64(len(pts)) / float64(target)))
	if capacity < 1 {
		capacity = 1
	}

	// Recursive split: a region over its capacity is divided at the
	// median x and median y of its points (each axis only when both
	// sides stay non-empty), and every strictly smaller child recurses.
	var xSplits, ySplits []float64
	var split func(pts []geom.Point, depth int)
	split = func(pts []geom.Point, depth int) {
		if len(pts) <= capacity || depth >= maxDepth {
			return
		}
		mx, okX := medianSplit(pts, func(p geom.Point) float64 { return p.X })
		my, okY := medianSplit(pts, func(p geom.Point) float64 { return p.Y })
		if !okX && !okY {
			return // all points identical on both axes
		}
		if okX {
			xSplits = append(xSplits, mx)
		}
		if okY {
			ySplits = append(ySplits, my)
		}
		var quads [4][]geom.Point
		for _, p := range pts {
			q := 0
			if okX && p.X >= mx {
				q |= 1
			}
			if okY && p.Y >= my {
				q |= 2
			}
			quads[q] = append(quads[q], p)
		}
		for _, child := range quads {
			if len(child) > 0 && len(child) < len(pts) {
				split(child, depth+1)
			}
		}
	}
	split(pts, 0)

	xCuts := flattenCuts(xSplits, minX, maxX)
	yCuts := flattenCuts(ySplits, minY, maxY)

	// Cold-sibling merge: flattening the quadtree multiplies the axes'
	// split counts, so the grid can far exceed the target. Repeatedly
	// merge the adjacent column or row pair with the smallest combined
	// sample load (ties: columns before rows, lowest index) until the
	// cell count fits.
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.Y
	}
	colLoad := axisLoads(xCuts, xs)
	rowLoad := axisLoads(yCuts, ys)
	for (len(xCuts)-1)*(len(yCuts)-1) > target {
		axis, at := coldestPair(colLoad, rowLoad)
		if axis < 0 {
			break // 1×1 grid; nothing left to merge
		}
		if axis == 0 {
			colLoad[at] += colLoad[at+1]
			colLoad = append(colLoad[:at+1], colLoad[at+2:]...)
			xCuts = append(xCuts[:at+1], xCuts[at+2:]...)
		} else {
			rowLoad[at] += rowLoad[at+1]
			rowLoad = append(rowLoad[:at+1], rowLoad[at+2:]...)
			yCuts = append(yCuts[:at+1], yCuts[at+2:]...)
		}
	}
	return NewFromCuts(xCuts, yCuts)
}

// medianSplit returns a coordinate that divides the points into two
// non-empty groups (strictly below / at-or-above), or ok=false when
// every point shares the coordinate. The median is preferred; when the
// median equals the minimum (heavy duplication), the smallest larger
// value is used instead.
func medianSplit(pts []geom.Point, coord func(geom.Point) float64) (float64, bool) {
	vs := make([]float64, len(pts))
	for i, p := range pts {
		vs[i] = coord(p)
	}
	sort.Float64s(vs)
	if m := vs[len(vs)/2]; m > vs[0] {
		return m, true
	}
	i := sort.Search(len(vs), func(i int) bool { return vs[i] > vs[0] })
	if i == len(vs) {
		return 0, false
	}
	return vs[i], true
}

// flattenCuts turns the recorded split coordinates into a strictly
// ascending cut slice over [lo, hi]: sorted, de-duplicated, interior
// only.
func flattenCuts(splits []float64, lo, hi float64) []float64 {
	sort.Float64s(splits)
	cuts := []float64{lo}
	for _, v := range splits {
		if v > cuts[len(cuts)-1] && v < hi {
			cuts = append(cuts, v)
		}
	}
	return append(cuts, hi)
}

// axisLoads counts the sample coordinates per cut interval, with the
// half-open ownership the grid uses (a value on a cut belongs to the
// interval on its right) and out-of-bounds values clamped to the edge
// intervals.
func axisLoads(cuts []float64, vs []float64) []int64 {
	loads := make([]int64, len(cuts)-1)
	for _, v := range vs {
		i := sort.SearchFloat64s(cuts, v)
		// SearchFloat64s finds the first cut ≥ v; a value exactly on cut
		// i starts interval i, anything between cuts i and i+1 lands in
		// interval i as well.
		if i == len(cuts) || cuts[i] != v {
			i--
		}
		if i < 0 {
			i = 0
		}
		if i > len(loads)-1 {
			i = len(loads) - 1
		}
		loads[i]++
	}
	return loads
}

// coldestPair finds the adjacent interval pair with the smallest
// combined load across both axes: axis 0 = columns, 1 = rows, and the
// returned index is the left/lower member. axis -1 means neither axis
// has two intervals.
func coldestPair(colLoad, rowLoad []int64) (axis, at int) {
	axis, at = -1, -1
	best := int64(math.MaxInt64)
	for i := 0; i+1 < len(colLoad); i++ {
		if s := colLoad[i] + colLoad[i+1]; s < best {
			axis, at, best = 0, i, s
		}
	}
	for i := 0; i+1 < len(rowLoad); i++ {
		if s := rowLoad[i] + rowLoad[i+1]; s < best {
			axis, at, best = 1, i, s
		}
	}
	return axis, at
}
