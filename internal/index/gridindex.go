package index

import (
	"math"

	"mwsjoin/internal/geom"
)

// Grid is a bucket-grid spatial index. Every rectangle is inserted into
// all buckets it overlaps; probes scan the buckets overlapping the
// (enlarged) probe rectangle and deduplicate with an epoch stamp, so a
// rectangle spanning several buckets is reported once.
//
// The bucket resolution is chosen from the data: roughly √n buckets per
// axis clamped so a bucket is never smaller than the average rectangle
// extent, which keeps per-bucket lists short without exploding the
// number of buckets a big rectangle must be inserted into.
type Grid struct {
	rects   []geom.Rect
	minX    float64
	minY    float64
	cellW   float64
	cellH   float64
	nx, ny  int
	buckets [][]int32
	stamp   []int32 // dedupe epochs, one per rectangle
	epoch   int32
}

// NewGrid builds a bucket grid over rects; the slice is retained, not
// copied. Building an empty index is allowed.
func NewGrid(rects []geom.Rect) *Grid {
	g := &Grid{rects: rects}
	if len(rects) == 0 {
		g.nx, g.ny = 1, 1
		g.cellW, g.cellH = 1, 1
		g.buckets = make([][]int32, 1)
		return g
	}

	// Bounding box and mean extent of the data.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	var sumL, sumB float64
	for _, r := range rects {
		minX = math.Min(minX, r.MinX())
		minY = math.Min(minY, r.MinY())
		maxX = math.Max(maxX, r.MaxX())
		maxY = math.Max(maxY, r.MaxY())
		sumL += r.L
		sumB += r.B
	}
	n := float64(len(rects))
	spanX := math.Max(maxX-minX, 1e-9)
	spanY := math.Max(maxY-minY, 1e-9)

	perAxis := math.Max(1, math.Sqrt(n))
	cellW := math.Max(spanX/perAxis, sumL/n*2)
	cellH := math.Max(spanY/perAxis, sumB/n*2)
	if cellW <= 0 {
		cellW = spanX
	}
	if cellH <= 0 {
		cellH = spanY
	}

	g.minX, g.minY = minX, minY
	g.cellW, g.cellH = cellW, cellH
	g.nx = int(spanX/cellW) + 1
	g.ny = int(spanY/cellH) + 1
	g.buckets = make([][]int32, g.nx*g.ny)
	g.stamp = make([]int32, len(rects))

	for i, r := range rects {
		g.forEachBucket(r, func(b int) {
			g.buckets[b] = append(g.buckets[b], int32(i))
		})
	}
	return g
}

// Len returns the number of indexed rectangles.
func (g *Grid) Len() int { return len(g.rects) }

// forEachBucket visits the bucket indices overlapping r, clamped into
// the grid.
func (g *Grid) forEachBucket(r geom.Rect, fn func(b int)) {
	x0 := g.clampX(int((r.MinX() - g.minX) / g.cellW))
	x1 := g.clampX(int((r.MaxX() - g.minX) / g.cellW))
	y0 := g.clampY(int((r.MinY() - g.minY) / g.cellH))
	y1 := g.clampY(int((r.MaxY() - g.minY) / g.cellH))
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			fn(y*g.nx + x)
		}
	}
}

func (g *Grid) clampX(x int) int { return min(max(x, 0), g.nx-1) }
func (g *Grid) clampY(y int) int { return min(max(y, 0), g.ny-1) }

// Probe invokes fn with the index of every rectangle within distance
// d of r (d = 0 means overlap), each once, in no particular order; fn
// returning false stops the probe. Not exact at extreme coordinates:
// see the package doc.
func (g *Grid) Probe(r geom.Rect, d float64, fn func(i int) bool) {
	if len(g.rects) == 0 {
		return
	}
	g.epoch++
	epoch := g.epoch
	search := r
	if d > 0 {
		search = r.Enlarge(d)
	}
	stopped := false
	g.forEachBucket(search, func(b int) {
		if stopped {
			return
		}
		for _, i := range g.buckets[b] {
			if g.stamp[i] == epoch {
				continue
			}
			g.stamp[i] = epoch
			if matches(g.rects[i], r, d) {
				if !fn(int(i)) {
					stopped = true
					return
				}
			}
		}
	})
}
