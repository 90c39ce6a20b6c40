// Package sweep implements the forward plane-sweep rectangle join used
// inside reducers to evaluate one 2-way predicate over the rectangles
// delivered to a partition-cell. This is the standard in-node join of
// the SJMR line of work the paper builds on (§5): both inputs are
// sorted by their left edge, and for each rectangle only the window of
// candidates whose x-extents come within the threshold is examined.
// The same strip layout serves the multi-way reducers' probes
// (Strips.Probe), so every reducer runs one kernel.
package sweep

import (
	"math"
	"slices"

	"mwsjoin/internal/geom"
)

// JoinSorted finds every pair (i, j) with as[i] within distance d of
// bs[j] (d = 0 means overlap) and calls fn for each; the callback
// returning false stops the join early. Both as and bs must already be
// in ascending MinX order (equal MinX in any fixed order): callers sort
// each relation once and sweep it many times (a relation is staged in
// sweep order). Pairs are emitted ascending by position in as, then bs.
//
// It is a striped plane sweep. The y-extent of bs is cut into
// horizontal strips about two mean rectangle heights + d tall (the
// count comes from the data alone and never exceeds len(bs)); every b
// is copied, in k order, into each strip its y-extent touches, and an
// a sweeps only the strips its d-enlarged y-extent touches, each with
// its own monotone start cursor. So a candidate is a b that is near a
// on both axes, not on x alone. A pair is examined in the first strip
// the two rectangles share and nowhere else, and the matches of an a
// that touched several strips are sorted before they are reported,
// which restores the k order of the unstriped loop. When the data
// yield one strip the unstriped loop runs on bs as they are.
//
// The strips only choose candidates; a pair is decided by sweepOne's
// test, the arithmetic of geom.Rect.WithinDist on the same float64
// values, so the emitted sequence is bit-identical at any strip count.
// For that the strips an a visits must cover every b the test can
// accept: stripOf is monotone in y, and reach widens a's enlarged
// extent past the rounding of a.Y+d against b.MinY−a.Y (DESIGN.md
// §4e). The layout is a Strips, cut from the heights of both sides;
// Build cuts one from bs's alone, for Probe.
//
// JoinSorted lays the strips out in memory of its own; a caller that
// joins many times keeps a Strips and calls its JoinSorted instead.
func JoinSorted(as, bs []geom.Rect, d float64, fn func(i, j int) bool) {
	var sc Strips
	sc.JoinSorted(as, bs, d, fn)
}

// JoinSorted is JoinSorted in sc's storage, which it grows and keeps.
func (sc *Strips) JoinSorted(as, bs []geom.Rect, d float64, fn func(i, j int) bool) {
	if len(as) == 0 || len(bs) == 0 || d < 0 {
		return
	}
	lo, hi, heights := extent(bs)
	for i := range as {
		heights += as[i].B
	}
	n := stripCount(lo, hi, heights, len(as)+len(bs), d, len(bs))
	if n == 1 {
		sweepOne(as, bs, d, fn)
		return
	}

	sc.deal(bs, lo, hi, n)
	// The sweep advances cursor[s] past the entries of strip s that
	// ended left of its front.
	sc.cursor = append(sc.cursor[:0], sc.start...)
	entries, cursor, end, matches := sc.entries, sc.cursor, sc.end, sc.matches
	d2 := d * d
	for i := range as {
		a := &as[i]
		aMin, aMax := a.X, a.X+a.L
		aTop, aBot := a.Y, a.Y-a.B
		yLo, yHi := reach(aTop, aBot, d)
		s0, s1 := sc.stripOf(yLo), sc.stripOf(yHi)
		matches = matches[:0]
		runs := 0
		for s := s0; s <= s1; s++ {
			es := entries[cursor[s]:end[s]]
			// The same permanent discard as sweepOne's, per strip.
			c := 0
			for c < len(es) && aMin-es[c].maxX > d {
				c++
			}
			cursor[s] += int32(c)
			// An entry that also lies in an earlier strip a visits was
			// examined there.
			seen := int32(s)
			if s == s0 {
				seen = 0
			}
			before := len(matches)
			for k := c; k < len(es); k++ {
				e := &es[k]
				if e.minX-aMax > d {
					break
				}
				if e.first < seen || e.minY-aTop > d || aBot-e.maxY > d {
					continue
				}
				dx := max(e.minX-aMax, aMin-e.maxX, 0)
				dy := max(e.minY-aTop, aBot-e.maxY, 0)
				if dx <= d && dy <= d && dx*dx+dy*dy <= d2 {
					matches = append(matches, e.k)
				}
			}
			if len(matches) > before {
				runs++
			}
		}
		if runs > 1 {
			slices.Sort(matches)
		}
		for _, k := range matches {
			if !fn(i, int(k)) {
				return
			}
		}
	}
	sc.matches = matches // keeps what the appends grew
}

// reach returns a y-interval holding every b the pair test can accept
// for an a spanning [bot, top]: b.MinY ≤ hi and lo ≤ b.MaxY. The test
// accepts on fl(b.MinY−top) ≤ d, which does not imply b.MinY ≤
// fl(top+d): the two roundings can disagree by an ulp of the larger of
// top and d each, when d dwarfs the coordinates. The slack is several
// such ulps, and costs a strip only to an a within a few ulps of a
// strip's edge.
func reach(top, bot, d float64) (lo, hi float64) {
	slack := (math.Abs(top) + math.Abs(bot) + d) * 0x1p-50
	return bot - d - slack, top + d + slack
}

// Strips is a slot of rectangles laid out for the in-reducer join: the
// y-extent cut into horizontal strips, every rectangle copied, with its
// edges computed once, into each strip its y-extent touches, and each
// strip a run ascending by MinX. JoinSorted sweeps such a layout with
// one monotone cursor per strip; Build makes one for Probe, which finds
// the rectangles near one probe rectangle at a time, in any order of
// probes. A Strips keeps the storage it grew, so a Build or JoinSorted
// in one that has laid out as many rectangles before allocates nothing;
// its zero value is empty and ready for either.
type Strips struct {
	lo, inv, top float64 // stripOf's origin, strips per unit of y, last strip
	entries      []stripEntry
	// Strip s is entries[start[s]:end[s]]. Build sets width[s], the
	// largest maxX − minX among its entries, which bounds Probe's
	// x-window.
	start, end []int32
	width      []float64
	// JoinSorted's working set: its per-strip cursors, and the bs one a
	// matched.
	cursor, matches []int32
}

// stripEntry is one b in one strip.
type stripEntry struct {
	minX, maxX, minY, maxY float64
	k                      int32 // position in bs
	first                  int32 // the lowest strip holding this b
}

// Build lays bs, ascending by MinX, out in sc's strips for probes at
// distance d, replacing the layout sc held. A strip is cut from bs's
// own mean height and d as JoinSorted cuts it, so no size or option
// enters the layout. The slice is read, not retained.
func (sc *Strips) Build(bs []geom.Rect, d float64) {
	if len(bs) == 0 {
		sc.entries = sc.entries[:0]
		return
	}
	lo, hi, heights := extent(bs)
	sc.deal(bs, lo, hi, stripCount(lo, hi, heights, len(bs), d, len(bs)))
	sc.width = sc.width[:0]
	for s := range sc.start {
		w := 0.0
		for _, e := range sc.entries[sc.start[s]:sc.end[s]] {
			w = max(w, e.maxX-e.minX)
		}
		sc.width = append(sc.width, w)
	}
}

// Room is the most strip entries (one per strip a rectangle lies in)
// sc holds without growing.
func (sc *Strips) Room() int { return cap(sc.entries) }

// Bytes is the memory sc's storage holds, its 40-byte strip entries
// (four float64 and two int32) the most of it.
func (sc *Strips) Bytes() int64 {
	return 40*int64(cap(sc.entries)) + 4*int64(cap(sc.start)+cap(sc.end)+cap(sc.cursor)+cap(sc.matches)+2*cap(sc.width))
}

// Probe calls fn with the position in bs of every b within distance d
// of a (d = 0: overlapping it), and stops when fn returns false. Each b
// is reported once, strip by strip and ascending within a strip.
//
// It visits the strips reach(a, d) touches, applies the first-shared-
// strip rule there, and in each starts at the first entry whose MinX
// is at least a.MinX − d − width(strip): an entry further left ends
// more than d left of a. The bound carries reach's slack, (|a.MinX| +
// d + width)·2⁻⁵⁰, because the test accepts on fl(a.MinX − b.MaxX) ≤ d
// and b.MaxX is itself a rounded sum; a pair is then decided by
// sweepOne's exact gap arithmetic, b.min − a.max against d, never a.max
// + d against b.min (DESIGN.md §4e).
func (sc *Strips) Probe(a geom.Rect, d float64, fn func(k int) bool) {
	if len(sc.entries) == 0 || d < 0 {
		return
	}
	aMin, aMax := a.X, a.X+a.L
	aTop, aBot := a.Y, a.Y-a.B
	yLo, yHi := reach(aTop, aBot, d)
	s0, s1 := sc.stripOf(yLo), sc.stripOf(yHi)
	d2 := d * d
	for s := s0; s <= s1; s++ {
		es := sc.entries[sc.start[s]:sc.end[s]]
		w := sc.width[s]
		from := aMin - d - w - (math.Abs(aMin)+d+w)*0x1p-50
		k, hi := 0, len(es)
		for k < hi {
			h := int(uint(k+hi) >> 1)
			if es[h].minX < from {
				k = h + 1
			} else {
				hi = h
			}
		}
		seen := int32(s)
		if s == s0 {
			seen = 0
		}
		for ; k < len(es); k++ {
			e := &es[k]
			if e.minX-aMax > d {
				break
			}
			if e.first < seen || e.minY-aTop > d || aBot-e.maxY > d {
				continue
			}
			dx := max(e.minX-aMax, aMin-e.maxX, 0)
			dy := max(e.minY-aTop, aBot-e.maxY, 0)
			if dx <= d && dy <= d && dx*dx+dy*dy <= d2 && !fn(int(e.k)) {
				return
			}
		}
	}
}

// extent returns the y-range bs span and the sum of their heights.
func extent(bs []geom.Rect) (lo, hi, heights float64) {
	lo, hi = bs[0].Y-bs[0].B, bs[0].Y
	for i := range bs {
		lo, hi = min(lo, bs[i].Y-bs[i].B), max(hi, bs[i].Y)
		heights += bs[i].B
	}
	return lo, hi, heights
}

// stripCount is the number of strips [lo, hi] is cut into, from the
// heights of count rectangles and d; at most nb, the rectangles dealt.
//
// A strip is twice the mean height, + d, tall: as tall as the tallest
// rectangle when heights spread evenly from zero, so an a visits one
// strip or two as a rule. Visits are what a strip costs (each starts on
// cache lines the last a did not touch), and a strip half as tall saves
// fewer candidates than it adds visits. Written so that a zero height
// (q = +Inf) takes nb strips and a zero extent (q = NaN or 0) one.
func stripCount(lo, hi, heights float64, count int, d float64, nb int) int {
	n := 1
	if q := (hi - lo) / (2*heights/float64(count) + d); q >= 2 {
		n = int(min(q, float64(nb)))
	}
	return n
}

// stripOf maps a y to its strip, clamped to the strips there are. It
// is monotone in y, which is all the sweep needs of it.
func (sc *Strips) stripOf(y float64) int {
	f := (y - sc.lo) * sc.inv
	if !(f > 0) {
		return 0
	}
	if f >= sc.top {
		return int(sc.top)
	}
	return int(f)
}

// deal cuts [lo, hi] into n strips and copies bs into them, each strip
// in bs order.
func (sc *Strips) deal(bs []geom.Rect, lo, hi float64, n int) {
	sc.lo, sc.inv, sc.top = lo, float64(n)/(hi-lo), float64(n-1)
	sc.start = append(sc.start[:0], make([]int32, n)...)
	sc.end = append(sc.end[:0], make([]int32, n)...)
	start, end := sc.start, sc.end
	for i := range bs {
		s1 := sc.stripOf(bs[i].Y)
		for s := sc.stripOf(bs[i].Y - bs[i].B); s <= s1; s++ {
			end[s]++
		}
	}
	total := int32(0)
	for s := range end {
		start[s] = total
		total += end[s]
		end[s] = start[s]
	}
	sc.entries = append(sc.entries[:0], make([]stripEntry, total)...)
	entries := sc.entries
	for i := range bs {
		b := &bs[i]
		e := stripEntry{minX: b.X, maxX: b.X + b.L, minY: b.Y - b.B, maxY: b.Y, k: int32(i)}
		s0, s1 := sc.stripOf(e.minY), sc.stripOf(e.maxY)
		e.first = int32(s0)
		for s := s0; s <= s1; s++ {
			entries[end[s]] = e
			end[s]++
		}
	}
}

// sweepOne is the forward sweep over bs as one strip: JoinSorted when
// the data call for no more, and the definition of the pair test.
//
// The pair predicate is inlined rather than dispatched through Rect
// methods. A y gap above d rejects most of an x window, so it is
// looked at first; what is left is decided by the arithmetic of
// geom.Rect.WithinDist/axisGap — the same subtractions in the same
// order, gathered with the builtin float max — which for d = 0
// degenerates to exactly Rect.Overlaps (dx = dy = 0 iff the closed
// extents intersect). The early rejection only skips pairs that test
// refuses (dy is at least either y gap).
func sweepOne(as, bs []geom.Rect, d float64, fn func(i, j int) bool) {
	d2 := d * d
	start := 0
	for i := range as {
		a := &as[i]
		aMin, aMax := a.X, a.X+a.L // MinX, MaxX
		aTop, aBot := a.Y, a.Y-a.B // MaxY, MinY
		// Permanently discard leading b's that ended left of the sweep
		// front: future a's have MinX ≥ aMin (and float subtraction is
		// monotone), so such b's can never come within d on the x axis
		// again. Dead b's further inside the window are filtered by the
		// gap test instead. The gap is computed as aMin−b.MaxX(),
		// exactly the arithmetic of the axis-gap test below: comparing
		// against a precomputed aMin−d instead loses pairs when that
		// subtraction rounds the other way than the gap's.
		for start < len(bs) && aMin-(bs[start].X+bs[start].L) > d {
			start++
		}
		for k := start; k < len(bs); k++ {
			b := &bs[k]
			if b.X-aMax > d {
				break // all later b's start even further right
			}
			bBot := b.Y - b.B
			if bBot-aTop > d || aBot-b.Y > d {
				continue
			}
			// Axis gaps per geom.axisGap: positive difference when the
			// closed extents are disjoint on that axis, 0 otherwise
			// (both differences are ≤ 0 when they meet).
			dx := max(b.X-aMax, aMin-(b.X+b.L), 0)
			dy := max(bBot-aTop, aBot-b.Y, 0)
			if dx <= d && dy <= d && dx*dx+dy*dy <= d2 {
				if !fn(i, k) {
					return
				}
			}
		}
	}
}
