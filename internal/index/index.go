// Package index holds two spatial indexes the engine no longer uses:
//
//   - Grid: a bucket grid;
//   - RTree: an STR bulk-loaded R-tree.
//
// Every reducer now runs the strip kernel of internal/sweep. The two
// stay only because the benchmark's layer measurements
// (benchmark/layers.go) call NewGrid and NewRTree by name; they go
// when that file is ported. Both answer overlap probes (d = 0) and
// within-distance probes (d > 0) with indices into the rectangle slice
// they were built from. RTree is exact at any coordinates; Grid is not:
// it picks buckets from the probe enlarged by d, and where that
// enlargement rounds short of a rectangle by an ulp — coordinates near
// 1e9 with d ≈ 1e9 — it drops pairs geom.Rect.WithinDist accepts.
package index

import "mwsjoin/internal/geom"

// matches is the shared predicate test: overlap when d == 0, within
// distance otherwise.
func matches(a, b geom.Rect, d float64) bool {
	if d == 0 {
		return a.Overlaps(b)
	}
	return a.WithinDist(b, d)
}
