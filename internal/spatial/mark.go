package spatial

import (
	"math"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/query"
)

// Round one of Controlled-Replicate: each reducer c receives the
// rectangles split onto its cell and decides which of those *starting*
// in c must be replicated (§7.4, conditions C1–C4; §8 revises C2 for
// range predicates; §9 for hybrid queries).
//
// Implementation note (DESIGN.md §3.1). The union uS_c over the maximal
// rectangle-sets of §7.4 equals the union over all rectangle-sets
// satisfying C1–C3, so maximality (C4) is only a search prune. A
// rectangle u is therefore marked iff a *witness* exists: a consistent
// partial assignment U ∋ u over a proper subset S of the slots such
// that every member whose relation has a query edge leaving S can
// escape the cell via that edge, where escaping means crossing the cell
// boundary for overlap edges (C2, §7.4) and having another cell within
// the edge's distance d for range edges (C2, §8).
//
// The search assigns u, then repeatedly *forces in* the neighbour slots
// of members that cannot escape, backtracking over candidate members.
// When no forced slot remains and |S| < m, the witness stands (C3 holds
// because the join graph is connected). When the closure swallows all m
// slots the branch is a full local tuple — exactly the C3 boundary case
// the paper excludes, because reducer c can compute that tuple itself
// in round two. The round decides, it does not join: down one branch
// the set assigned ∪ pending never shrinks, so as soon as it covers all
// m slots every leaf below is such a tuple or a dead end, and the
// branch is abandoned before a single candidate is probed.
//
// The round's map ships a reducer only the rectangles near its cell's
// boundary (markBand below), and its output is the marked rectangles
// alone: round two reads the relations themselves.

// marker is the per-cell marking engine. It is rebuilt per reducer call
// (cheap: slices over the already-grouped cell data).
type marker struct {
	pl   *plan
	part *grid.Partitioning
	cell grid.CellID
	cd   *cellData

	// escape[s][e][j] caches whether item j of slot s can escape the
	// cell via incident edge e (ordering per slotEdges[s]).
	slotEdges [][]query.Edge
	escape    [][][]bool

	strips cellStrips
	assign []int
	// forcedBy[s] counts how many assigned members currently force
	// slot s in; a slot is pending while forcedBy > 0 and unassigned.
	forcedBy []int
	assigned int
	marked   [][]bool

	// try[t] is the probe callback binding a candidate to slot t, built
	// once per cell so the search allocates nothing per probe; found
	// carries the innermost finished witness call's result out of it.
	try   []func(j int) bool
	found bool
}

// markCell computes the marked flag for every item of cd that starts in
// cell c. The returned matrix is indexed [slot][local item index].
func markCell(pl *plan, part *grid.Partitioning, c grid.CellID, cd *cellData) [][]bool {
	mk := &marker{
		pl:       pl,
		part:     part,
		cell:     c,
		cd:       cd,
		strips:   cellStrips{rects: cd.rects},
		assign:   make([]int, pl.m),
		forcedBy: make([]int, pl.m),
		marked:   make([][]bool, pl.m),
	}
	for s := 0; s < pl.m; s++ {
		mk.assign[s] = -1
		mk.marked[s] = make([]bool, len(cd.ids[s]))
	}
	if pl.m < 2 {
		return mk.marked // single-relation queries never replicate
	}
	mk.slotEdges = make([][]query.Edge, pl.m)
	mk.escape = make([][][]bool, pl.m)
	mk.try = make([]func(int) bool, pl.m)
	for s := 0; s < pl.m; s++ {
		mk.slotEdges[s] = pl.q.EdgesAt(s)
		mk.escape[s] = make([][]bool, len(mk.slotEdges[s]))
		mk.try[s] = func(j int) bool { return mk.tryCandidate(s, j) }
	}
	defer mk.strips.release()

	for s := 0; s < pl.m; s++ {
		for j := range cd.ids[s] {
			if mk.marked[s][j] {
				continue
			}
			if part.Project(cd.rects[s][j]) != c {
				continue // only the start cell decides (and outputs) an item
			}
			mk.bind(s, j)
			mk.witness() // marks the whole witness set on success
			mk.unbind(s, j)
		}
	}
	return mk.marked
}

// The mark round ships only the rectangles a witness can use: its map
// drops every rectangle that lies deeper inside its start cell than its
// slot's band width (DESIGN.md §3.1). Let U ∋ u be a witness over S,
// with u of slot i starting in cell c. The query graph is connected and
// S is a proper subset, so some member w has an edge e leaving S, and w
// escapes through e: it crosses ∂c (overlap), lies within weight(e) of
// ∂c (range: another cell is within d of it), or lies outside c
// altogether. The members between u and w satisfy their edges, so
//
//	dist(u, ∂c) ≤ path_S(i, w) + [w ≠ u]·dmax[w] + weight(e),
//
// where path_S is query.ReplicationBounds' path bound (Σ edge weights +
// Σ intermediate dmax) over paths inside S. Slot i's band width is the
// largest distance this admits: the maximum over connected S ∋ i of the
// minimum over the edges (w, e) leaving S. Every other member of U is
// bounded by its own slot's width the same way.
//
// That maximum is the C-Rep-L radius of slot i, its largest path bound
// to another slot. It is at most the radius: a shortest path from i to
// any slot outside S leaves S first through some (w, e), and the terms
// up to there are a prefix of it. It is at least the radius: take the
// farthest slot x among the leaves of a shortest-path tree from i; the
// tree without x keeps S = slots∖{x} connected, every edge leaving S
// enters x, and each term is then the cost of a path from i to x.
// TestMarkBandWidths holds markBand to the max-min over every S.

// markBand returns each slot's band width from the slots' largest
// rectangle diagonals. A single-relation query never replicates, so its
// one slot gets −∞: nothing is shipped.
func markBand(q *query.Query, dmax []float64) ([]float64, error) {
	if q.NumSlots() < 2 {
		return []float64{math.Inf(-1)}, nil
	}
	return q.ReplicationBounds(dmax)
}

// inMarkBand reports whether the mark round ships r, a rectangle of a
// slot with band width w: whether r lies within w of its start cell's
// boundary. A rectangle that is not inside its start cell — it crosses
// or touches a cut, or was clamped in from outside the grid — has a gap
// of at most 0 and always ships when w ≥ 0.
func inMarkBand(part *grid.Partitioning, r geom.Rect, w float64) bool {
	c := part.CellRect(part.Project(r))
	gap := min(r.MinX()-c.MinX(), c.MaxX()-r.MaxX(), r.MinY()-c.MinY(), c.MaxY()-r.MaxY())
	// The argument above holds over the reals; the search decides in
	// float64. Each step of a witness path — a predicate test, a
	// diagonal, a cell edge computed as X+L, a sum in ReplicationBounds —
	// rounds by a few ulps of the largest magnitude it involves, and every
	// rectangle on the path lies within |cell coordinates| + w of the
	// origin. The slack is 2⁻⁴⁰ of that magnitude, 4,096 of its ulps:
	// more than the roundings of a path through every slot of any query
	// the int8 slot tag can hold. A width that overflowed to NaN ships
	// everything.
	slack := (math.Abs(c.X) + math.Abs(c.Y) + c.L + c.B + w) * 0x1p-40
	return !(gap > w+slack)
}

// escapeOK reports (with caching) whether item j of slot s satisfies
// the C2 escape test for its incident edge index ei.
func (mk *marker) escapeOK(s, ei, j int) bool {
	col := mk.escape[s][ei]
	if col == nil {
		col = make([]bool, len(mk.cd.ids[s]))
		e := mk.slotEdges[s][ei]
		for k := range col {
			col[k] = mk.itemEscapes(mk.cd.rects[s][k], e)
		}
		mk.escape[s][ei] = col
	}
	return col[j]
}

// itemEscapes is the uncached C2 test for one rectangle and edge.
func (mk *marker) itemEscapes(r geom.Rect, e query.Edge) bool {
	if e.Pred.Kind == query.Overlap {
		return mk.part.Crosses(r)
	}
	return mk.part.OtherCellWithin(r, mk.cell, e.Pred.D)
}

// bind assigns item j to slot s and forces in every neighbour slot
// reached by an edge the item cannot escape through; unbind undoes it.
func (mk *marker) bind(s, j int) {
	mk.assign[s] = j
	mk.assigned++
	mk.force(s, j, +1)
}

func (mk *marker) unbind(s, j int) {
	mk.force(s, j, -1)
	mk.assigned--
	mk.assign[s] = -1
}

func (mk *marker) force(s, j, delta int) {
	for ei, e := range mk.slotEdges[s] {
		if !mk.escapeOK(s, ei, j) {
			mk.forcedBy[e.Other(s)] += delta
		}
	}
}

// witness runs the forced-closure backtracking search from the current
// assignment. On success it marks every assigned member that starts in
// the cell and returns true; the first witness ends the search, since
// it marks only its own members and markCell starts a search of its own
// from every item still unmarked.
func (mk *marker) witness() bool {
	t, pending := -1, 0
	for s, f := range mk.forcedBy {
		if f > 0 && mk.assign[s] < 0 {
			if t < 0 {
				t = s
			}
			pending++
		}
	}
	// Binding only ever adds to assigned ∪ pending, and a witness is a
	// leaf with nothing pending and fewer than m slots assigned: once
	// the closure covers every slot, all that lies below is full local
	// tuples (the C3 case, which marks nothing) and dead ends.
	if mk.assigned+pending >= mk.pl.m {
		return false
	}
	if t < 0 {
		for s, j := range mk.assign {
			if j >= 0 && mk.part.Project(mk.cd.rects[s][j]) == mk.cell {
				mk.marked[s][j] = true
			}
		}
		return true
	}
	// Candidates for the forced slot come from a probe of its strips
	// along an edge to an assigned neighbour — there is one, the member
	// that forced the slot in.
	mk.found = false
	for _, e := range mk.slotEdges[t] {
		if k := mk.assign[e.Other(t)]; k >= 0 {
			d := e.Pred.Weight()
			mk.strips.of(t, d).Probe(mk.cd.rects[e.Other(t)][k], d, mk.try[t])
			break
		}
	}
	return mk.found
}

// tryCandidate binds item j to the forced slot t if it is consistent
// with the current assignment (C1) and distinct under self-joins, and
// searches on. It is the probe callback: false stops the probe, which
// it does at the first witness.
func (mk *marker) tryCandidate(t, j int) bool {
	if !mk.consistentWithAssigned(t, j) {
		return true
	}
	mk.bind(t, j)
	mk.found = mk.witness()
	mk.unbind(t, j)
	return !mk.found
}

// consistentWithAssigned verifies C1 (all edges into the assigned set)
// and self-join distinctness for binding item j to slot t.
func (mk *marker) consistentWithAssigned(t, j int) bool {
	for _, e := range mk.slotEdges[t] {
		u := e.Other(t)
		k := mk.assign[u]
		if k < 0 {
			continue
		}
		if !e.Pred.Eval(mk.cd.rects[t][j], mk.cd.rects[u][k]) {
			return false
		}
	}
	if mk.pl.distinct {
		for u := 0; u < mk.pl.m; u++ {
			k := mk.assign[u]
			if k >= 0 && !mk.pl.compatible(u, mk.cd.ids[u][k], t, mk.cd.ids[t][j]) {
				return false
			}
		}
	}
	return true
}
