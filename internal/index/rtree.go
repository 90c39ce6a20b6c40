package index

import (
	"math"
	"slices"

	"mwsjoin/internal/geom"
)

// rtreeFanout is the maximum number of children per R-tree node. 16 is
// a good compromise between tree depth and per-node scan cost for the
// in-memory trees built inside reducers.
const rtreeFanout = 16

// RTree is an immutable R-tree bulk-loaded with the Sort-Tile-Recursive
// (STR) algorithm. STR sorts rectangles by center x, slices them into
// vertical tiles, sorts each tile by center y and packs leaves bottom
// up, producing near-optimal space utilisation for one-shot indexes —
// exactly the lifecycle of a reducer-local index.
//
// The tree is flat: the STR order is one permutation of the rectangle
// indices, and every level above it is one contiguous array of boxes
// with precomputed edges. Entry i of a level covers entries [16i, 16i+16)
// of the level below (below level 0, positions of the permutation), so
// children are found by arithmetic and a build allocates once per
// array, not once per node.
type RTree struct {
	rects []geom.Rect
	// perm[p] is the rectangle at leaf position p.
	perm []int32
	// levels[0] holds the leaves' boxes, levels[len-1] the root's alone.
	levels [][]box
}

// box is a rectangle as the four edges the predicates compare:
// exactly geom.Rect's MinX, MinY, MaxX and MaxY, computed once.
type box struct{ minX, minY, maxX, maxY float64 }

func boxOf(r geom.Rect) box { return box{r.MinX(), r.MinY(), r.MaxX(), r.MaxY()} }

// union grows b to cover c.
func (b *box) union(c box) {
	b.minX, b.minY = min(b.minX, c.minX), min(b.minY, c.minY)
	b.maxX, b.maxY = max(b.maxX, c.maxX), max(b.maxY, c.maxY)
}

// overlaps is geom.Rect.Overlaps on precomputed edges.
func (b *box) overlaps(q *box) bool {
	return b.minX <= q.maxX && q.minX <= b.maxX && b.minY <= q.maxY && q.minY <= b.maxY
}

// within is geom.Rect.WithinDist on precomputed edges, d ≥ 0. The gaps
// are the same subtractions geom's axisGap performs (b.min − q.max
// against d, never q.max + d against b.min, which rounds differently
// and can reject a pair WithinDist accepts), so at the items it is the
// join predicate to the bit; at a node it can only be more generous
// than at the items beneath it, because subtraction, squaring and
// addition of non-negatives are monotone under rounding and a node's
// box contains theirs.
func (b *box) within(q *box, d float64) bool {
	dx := max(0, b.minX-q.maxX, q.minX-b.maxX)
	dy := max(0, b.minY-q.maxY, q.minY-b.maxY)
	return dx <= d && dy <= d && dx*dx+dy*dy <= d*d
}

// strKeys replaces each rectangle index in keys by a sortable word: the
// rectangle's center coordinate (x, or y when byY) scaled onto 32 bits
// of the slice's own range, above the index. Sorting the words sorts by
// center and breaks ties — exact ones and those of the scaling — by
// index, so the order is a function of the input alone; STR needs no
// more of it than that, since any order packs a correct tree.
func strKeys(keys []uint64, rects []geom.Rect, byY bool) {
	center := func(k uint64) float64 {
		c := rects[uint32(k)].Center()
		if byY {
			return c.Y
		}
		return c.X
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, k := range keys {
		c := center(k)
		lo, hi = min(lo, c), max(hi, c)
	}
	scale := 0.0
	if hi > lo {
		scale = (1<<32 - 1) / (hi - lo)
	}
	for i, k := range keys {
		keys[i] = uint64((center(k)-lo)*scale)<<32 | uint64(uint32(k))
	}
}

// NewRTree bulk-loads an R-tree over rects; the slice is retained, not
// copied. Building an empty tree is allowed.
func NewRTree(rects []geom.Rect) *RTree {
	t := &RTree{rects: rects}
	n := len(rects)
	if n == 0 {
		return t
	}

	// STR order: by center x, then each vertical tile by center y.
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	strKeys(keys, rects, false)
	slices.Sort(keys)
	nLeaves := (n + rtreeFanout - 1) / rtreeFanout
	tile := int(math.Ceil(math.Sqrt(float64(nLeaves)))) * rtreeFanout
	for lo := 0; lo < n; lo += tile {
		ks := keys[lo:min(lo+tile, n)]
		strKeys(ks, rects, true)
		slices.Sort(ks)
	}
	t.perm = make([]int32, n)
	for p, k := range keys {
		t.perm[p] = int32(uint32(k))
	}

	// Every level in one array: ⌈n/16⌉ leaves, then a sixteenth of the
	// level below until one root remains.
	total, height := 0, 0
	for w := nLeaves; ; w = (w + rtreeFanout - 1) / rtreeFanout {
		total += w
		height++
		if w == 1 {
			break
		}
	}
	nodes := make([]box, total)
	t.levels = make([][]box, 0, height)
	leaves := nodes[:nLeaves:nLeaves]
	for i := range leaves {
		kids := t.perm[i*rtreeFanout : min((i+1)*rtreeFanout, n)]
		b := boxOf(rects[kids[0]])
		for _, k := range kids[1:] {
			b.union(boxOf(rects[k]))
		}
		leaves[i] = b
	}
	t.levels = append(t.levels, leaves)
	for below := leaves; len(below) > 1; {
		nodes = nodes[len(below):]
		w := (len(below) + rtreeFanout - 1) / rtreeFanout
		level := nodes[:w:w]
		for i := range level {
			kids := below[i*rtreeFanout : min((i+1)*rtreeFanout, len(below))]
			b := kids[0]
			for _, k := range kids[1:] {
				b.union(k)
			}
			level[i] = b
		}
		t.levels = append(t.levels, level)
		below = level
	}
	return t
}

// Len returns the number of indexed rectangles.
func (t *RTree) Len() int { return len(t.rects) }

// Height returns the number of levels in the tree (0 for an empty
// tree); exposed for tests and diagnostics.
func (t *RTree) Height() int { return len(t.levels) }

// Probe invokes fn with the index of every rectangle within distance
// d of r (d = 0 means overlap), each once, in STR order; fn returning
// false stops the probe.
func (t *RTree) Probe(r geom.Rect, d float64, fn func(i int) bool) {
	if len(t.levels) == 0 || d < 0 {
		return // a negative distance matches nothing, as in WithinDist
	}
	q := boxOf(r)
	if d == 0 {
		t.probeOverlap(len(t.levels)-1, 0, &q, fn)
	} else {
		t.probeWithin(len(t.levels)-1, 0, &q, d, fn)
	}
}

// probeOverlap visits the children of the given level's node that
// overlap q; below level 0 the children are the rectangles themselves.
func (t *RTree) probeOverlap(level, node int, q *box, fn func(i int) bool) bool {
	lo := node * rtreeFanout
	if level == 0 {
		for _, i := range t.perm[lo:min(lo+rtreeFanout, len(t.perm))] {
			if b := boxOf(t.rects[i]); b.overlaps(q) && !fn(int(i)) {
				return false
			}
		}
		return true
	}
	kids := t.levels[level-1]
	kids = kids[lo:min(lo+rtreeFanout, len(kids))]
	for k := range kids {
		if kids[k].overlaps(q) && !t.probeOverlap(level-1, lo+k, q, fn) {
			return false
		}
	}
	return true
}

// probeWithin is probeOverlap for a distance d > 0. They are two
// functions because one that picks the predicate per box is too big to
// inline it, and the call costs a third of the probe.
func (t *RTree) probeWithin(level, node int, q *box, d float64, fn func(i int) bool) bool {
	lo := node * rtreeFanout
	if level == 0 {
		for _, i := range t.perm[lo:min(lo+rtreeFanout, len(t.perm))] {
			if b := boxOf(t.rects[i]); b.within(q, d) && !fn(int(i)) {
				return false
			}
		}
		return true
	}
	kids := t.levels[level-1]
	kids = kids[lo:min(lo+rtreeFanout, len(kids))]
	for k := range kids {
		if kids[k].within(q, d) && !t.probeWithin(level-1, lo+k, q, d, fn) {
			return false
		}
	}
	return true
}
