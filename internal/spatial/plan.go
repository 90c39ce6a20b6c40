package spatial

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/query"
	"mwsjoin/internal/sweep"
)

// plan precomputes the query-dependent state shared by every reducer:
// the slot visit order for backtracking, the probe edge per position,
// self-join slot groups, and (for C-Rep-L) the per-slot replication
// radii. A plan is immutable after construction and safe for concurrent
// use.
type plan struct {
	q        *query.Query
	m        int
	distinct bool // forbid binding one rectangle to two slots of one dataset, where two slots bind one

	// order is a connected visit order over slots: every slot after
	// the first has at least one edge to an earlier slot.
	order []int
	// edgesToPrev[p] are the query edges from slot order[p] to slots
	// earlier in the order; primary[p] indexes the edge that finds the
	// candidates (the rest are verified as filters).
	edgesToPrev [][]query.Edge
	primary     []int
	// sameDataset[i][j] marks slot pairs bound to the same dataset.
	sameDataset [][]bool
	slotEdges   [][]query.Edge // slotEdges[s] = q.EdgesAt(s)
	maxEdges    int            // the most edges at one slot
}

// newPlan validates the query/relation binding and builds the plan.
func newPlan(q *query.Query, rels []Relation, distinct bool) (*plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	m := q.NumSlots()
	if len(rels) != m {
		return nil, fmt.Errorf("spatial: query has %d slots but %d relations were bound", m, len(rels))
	}
	pl := &plan{q: q, m: m}

	// Same-dataset groups, by relation name.
	pl.sameDataset = make([][]bool, m)
	pl.slotEdges = make([][]query.Edge, m)
	for i := range pl.sameDataset {
		pl.sameDataset[i] = make([]bool, m)
		for j := range pl.sameDataset[i] {
			pl.sameDataset[i][j] = i != j && rels[i].Name == rels[j].Name
			pl.distinct = pl.distinct || distinct && pl.sameDataset[i][j]
		}
		pl.slotEdges[i] = q.EdgesAt(i)
		pl.maxEdges = max(pl.maxEdges, len(pl.slotEdges[i]))
	}

	// Visit order: start at slot 0, greedily append the unvisited slot
	// with the most edges into the visited set (ties to the lowest
	// index). Validate() guarantees connectivity, so this covers all
	// slots. optimizeOrder derives the cost-based alternative.
	visited := make([]bool, m)
	pl.order = append(pl.order, 0)
	visited[0] = true
	for len(pl.order) < m {
		best, bestEdges := -1, 0
		for s := 0; s < m; s++ {
			if visited[s] {
				continue
			}
			n := 0
			for _, e := range q.EdgesAt(s) {
				if visited[e.Other(s)] {
					n++
				}
			}
			if n > bestEdges {
				best, bestEdges = s, n
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("spatial: query join graph is not connected")
		}
		pl.order = append(pl.order, best)
		visited[best] = true
	}
	pl.buildEdges()
	return pl, nil
}

// buildEdges derives, for the current order, the edges from each slot
// to earlier slots and the probe edge per position. Overlap edges are
// preferred as probes: a d = 0 probe is the most selective.
func (pl *plan) buildEdges() {
	m := pl.m
	pl.edgesToPrev = make([][]query.Edge, m)
	pl.primary = make([]int, m)
	seen := make([]bool, m)
	seen[pl.order[0]] = true
	for p := 1; p < m; p++ {
		s := pl.order[p]
		pl.edgesToPrev[p] = nil
		for _, e := range pl.q.EdgesAt(s) {
			if seen[e.Other(s)] {
				pl.edgesToPrev[p] = append(pl.edgesToPrev[p], e)
			}
		}
		seen[s] = true
		pl.primary[p] = 0
		for i, e := range pl.edgesToPrev[p] {
			if e.Pred.Kind == query.Overlap {
				pl.primary[p] = i
				break
			}
		}
	}
}

// optimizeOrder returns the plan under a cost-based left-deep order
// (paper footnote 1 assumes 2-way Cascade runs its joins in the optimal
// order): the estimator supplies sampled 2-way join cardinalities, the
// first two slots are the cheapest edge, and each subsequent slot is
// the connected one minimising the estimated intermediate result size.
// The receiver is left as it is, and returned when there is nothing to
// reorder.
func (pl *plan) optimizeOrder(est *estimator) *plan {
	m := pl.m
	if m < 3 {
		return pl
	}
	// Pairwise cardinality and selectivity estimates, one per connected
	// slot pair (its first edge's predicate), lower slot first.
	type key struct{ a, b int }
	card := map[key]float64{}
	sel := map[key]float64{}
	for _, e := range pl.q.Edges() {
		k := key{min(e.A, e.B), max(e.A, e.B)}
		if _, done := card[k]; done {
			continue
		}
		c := est.card(k.a, k.b, e.Pred)
		card[k] = c
		if n := est.count(k.a) * est.count(k.b); n > 0 {
			sel[k] = c / n
		}
	}
	edgeCard := func(a, b int) float64 { return card[key{min(a, b), max(a, b)}] }
	edgeSel := func(a, b int) float64 { return sel[key{min(a, b), max(a, b)}] }

	// Cheapest edge first (ties: lowest slot indices).
	bestA, bestB, bestCost := -1, -1, math.Inf(1)
	for _, e := range pl.q.Edges() {
		a, b := min(e.A, e.B), max(e.A, e.B)
		if c := edgeCard(a, b); c < bestCost || (c == bestCost && (bestA < 0 || a < bestA || (a == bestA && b < bestB))) {
			bestA, bestB, bestCost = a, b, c
		}
	}
	order := []int{bestA, bestB}
	visited := make([]bool, m)
	visited[bestA], visited[bestB] = true, true
	cur := bestCost

	for len(order) < m {
		next, nextEst := -1, math.Inf(1)
		for t := 0; t < m; t++ {
			if visited[t] {
				continue
			}
			grow := -1.0
			for _, e := range pl.q.EdgesAt(t) {
				o := e.Other(t)
				if !visited[o] {
					continue
				}
				if grow < 0 {
					// First connecting edge: E × card(o,t)/N_o.
					if no := est.count(o); no == 0 {
						grow = 0
					} else {
						grow = cur * edgeCard(o, t) / no
					}
				} else {
					// Further connecting edges filter multiplicatively.
					grow *= edgeSel(o, t)
				}
			}
			if grow < 0 {
				continue // not connected yet
			}
			if grow < nextEst || (grow == nextEst && (next < 0 || t < next)) {
				next, nextEst = t, grow
			}
		}
		if next < 0 {
			return pl // disconnected under this start; keep original order
		}
		order = append(order, next)
		visited[next] = true
		cur = nextEst
	}
	opt := *pl
	opt.order = order
	opt.buildEdges()
	return &opt
}

// compatible reports whether binding item id j to slot sj conflicts
// with the already-bound (si, idI) under self-join distinctness.
func (pl *plan) compatible(si int, idI int32, sj int, idJ int32) bool {
	if !pl.distinct {
		return true
	}
	return !pl.sameDataset[si][sj] || idI != idJ
}

// cellData is the per-reducer view of the shuffled rectangles: ids and
// rects per slot, parallel slices, each slot in sweep order — ascending
// (MinX, arrival position) — which is what sweep.JoinSorted and
// Strips.Build read. It is every reducer's working set, drawn from the
// execution's pool and handed back as the reduce call returns
// (release), and it holds what its cells held: the searches over a cell
// keep their strip layouts, one per probed slot and sized by it,
// matchState and marker in it, and cascadeReduce sorts its sides in
// xs, words and buf, and sweeps recs and as (its tuples) against idBuf
// and rectBuf (its items).
type cellData struct {
	ids   [][]int32
	rects [][]geom.Rect

	idBuf   []int32     // every slot's ids, slot after slot, and
	rectBuf []geom.Rect // rects: the arrays ids and rects slice
	off     []int32     // slot s is positions off[s]:off[s+1] of both
	xs      []uint64    // sortSweepWords: sweepOrder of each item's MinX,
	words   []uint64    // the items of one slot after another,
	buf     []uint64    // and the sort's scratch
	keep    []int32     // matchPruned: the first slot's admitted items,
	as      []geom.Rect // and their rects where it admits not all
	recs    [][]byte
	join    sweep.Strips // the sweep along the plan's first edge
	strips  cellStrips
	match   matchState
	mark    marker
}

// newCellData groups tagged items by slot, each slot in sweep order.
// Ids and rects are permuted together, so an item's local index names
// the same record in both. Items read from the staged relations arrive
// in sweep order slot by slot, and sortSweepWords only checks them.
func newCellData(m int, items []tagged) *cellData { return new(cellData).fill(m, items) }

// takeCellData is newCellData in a working set drawn from pool.
func takeCellData(pool *mapreduce.BufferPool, m int, items []tagged) *cellData {
	return mapreduce.GetScratch[cellData](pool, len(items)).fill(m, items)
}

// release hands cd back to pool; nothing may read it after. What the
// pool would keep alive through it — a plan, a grid, an emit, pages —
// is dropped first.
func (cd *cellData) release(pool *mapreduce.BufferPool) {
	cd.match.pl, cd.match.emit, cd.mark.pl, cd.mark.part = nil, nil, nil, nil
	clear(cd.recs)
	mapreduce.PutScratch(pool, cd)
}

// Room is the most items of a cell cd takes without growing: a join or
// mark cell's in idBuf and rectBuf, a cascade cell's in xs and words,
// each array's capacity rounded up to its own size class.
func (cd *cellData) Room() int {
	return max(min(cap(cd.idBuf), cap(cd.rectBuf)), min(cap(cd.xs), cap(cd.words)))
}

// Bytes is the memory cd's slices and layouts hold.
func (cd *cellData) Bytes() int64 {
	b := int64(4*(cap(cd.idBuf)+cap(cd.keep)) + 32*(cap(cd.rectBuf)+cap(cd.as)) + 8*(cap(cd.xs)+cap(cd.words)+cap(cd.buf)) + 24*cap(cd.recs))
	for _, l := range cd.strips.built {
		b += l.s.Bytes()
	}
	return b + cd.join.Bytes() + int64(cap(cd.mark.markBuf)+cap(cd.mark.escape))
}

// reserve returns s emptied, in a new array of room n when s has less.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// zeroed returns n zero values, in s's array if it has room and in one
// of room n otherwise.
func zeroed[T any](s []T, n int) []T { return append(reserve(s, n), make([]T, n)...) }

func (cd *cellData) fill(m int, items []tagged) *cellData {
	n := len(items)
	cd.off = zeroed(cd.off, m+1)
	for i := range items {
		cd.off[items[i].Slot+1]++
	}
	for s := 0; s < m; s++ {
		cd.off[s+1] += cd.off[s]
	}
	// A counting sort by slot keeps each slot's arrival order; off[s]
	// serves as slot s's fill cursor and is restored after.
	cd.idBuf, cd.rectBuf = zeroed(cd.idBuf, n), zeroed(cd.rectBuf, n)
	for i := range items {
		k := &cd.off[items[i].Slot]
		cd.idBuf[*k], cd.rectBuf[*k] = items[i].ID, items[i].Rect
		*k++
	}
	copy(cd.off[1:], cd.off[:m])
	cd.off[0] = 0
	cd.ids, cd.rects = zeroed(cd.ids, m), zeroed(cd.rects, m)
	for s := 0; s < m; s++ {
		lo, hi := cd.off[s], cd.off[s+1]
		cd.ids[s], cd.rects[s] = cd.idBuf[lo:hi:hi], cd.rectBuf[lo:hi:hi]
		cd.sortSlot(s)
	}
	cd.strips.rects, cd.strips.n = cd.rects, 0
	return cd
}

// sortSlot puts slot s into sweep order, arrival order breaking ties. A
// slot that arrives in it, as a staged relation's does, is only
// checked; one that does not is sorted in xs, words and buf, and
// permuted through keep and as.
func (cd *cellData) sortSlot(s int) {
	ids, rects := cd.ids[s], cd.rects[s]
	if slices.IsSortedFunc(rects, func(a, b geom.Rect) int { return cmp.Compare(sweepOrder(a.MinX()), sweepOrder(b.MinX())) }) {
		return
	}
	cd.xs, cd.words = reserve(cd.xs, len(rects)), reserve(cd.words, len(rects))
	for k, r := range rects {
		cd.xs, cd.words = append(cd.xs, sweepOrder(r.MinX())), append(cd.words, uint64(k))
	}
	sortSweepWords(cd.words, cd.xs, nil, &cd.buf)
	cd.keep, cd.as = append(reserve(cd.keep, len(ids)), ids...), append(reserve(cd.as, len(rects)), rects...)
	for k, w := range cd.words {
		ids[k], rects[k] = cd.keep[uint32(w)], cd.as[uint32(w)]
	}
}

// cellStrips holds the strip layouts a search over one cell probes,
// each built on first use. A strip is cut from the distance it serves,
// so there is one per slot and probe distance; few distances meet one
// slot, and the list stays short. The next cell's layouts reuse these.
type cellStrips struct {
	rects [][]geom.Rect // the cell's slots
	built []builtStrips // the cell's layouts are built[:n]
	n     int
}

type builtStrips struct {
	slot int
	d    float64
	s    *sweep.Strips
}

// of returns slot s's layout for probes at distance d.
func (cs *cellStrips) of(s int, d float64) *sweep.Strips {
	for _, b := range cs.built[:cs.n] {
		if b.slot == s && b.d == d {
			return b.s
		}
	}
	if cs.n == len(cs.built) {
		cs.built = append(cs.built, builtStrips{s: new(sweep.Strips)})
	}
	b := &cs.built[cs.n]
	b.slot, b.d, cs.n = s, d, cs.n+1
	b.s.Build(cs.rects[s], d)
	return b.s
}

// match enumerates every assignment of local items to slots that
// satisfies all query conditions and invokes emit with assign[slot] =
// local item index. The plan's first edge is one sweep over its two
// slots; every later slot is searched by backtracking in plan order,
// probing its strips for candidates along the primary edge and
// verifying the remaining edges as filters. emit must not retain
// assign.
func (pl *plan) match(cd *cellData, emit func(assign []int)) {
	pl.matchPruned(cd, math.Inf(1), math.Inf(-1), math.Inf(-1), math.Inf(1), emit)
}

// matchInCell enumerates the assignments whose §6.2 duplicate-avoidance
// point is owned by cell c — the tuples reducer c must report. Partial
// assignments are pruned as soon as their running dup point provably
// leaves the cell: the point's x (maximum start x) only grows and its y
// (minimum start y) only shrinks as members are added, so once x
// reaches the cell's right edge (owned by the next column) or y reaches
// the bottom edge (owned by the row below) no extension can come back.
// The pruning bounds are disabled on the grid's outermost row/column,
// where CellOf clamps outside points back into the cell.
func (pl *plan) matchInCell(cd *cellData, part *grid.Partitioning, c grid.CellID, emit func(assign []int)) {
	cell := part.CellRect(c)
	row, col := part.RowCol(c)
	pruneX := math.Inf(1)
	if col < part.Cols()-1 {
		pruneX = cell.MaxX()
	}
	pruneY := math.Inf(-1)
	if row < part.Rows()-1 {
		pruneY = cell.MinY()
	}
	// Symmetrically, the final dup point's x is some member's start x,
	// which must reach the cell's column for the cell to own it (and
	// the point's y must reach down to the cell's row) — except on the
	// clamping first column/row.
	needX := math.Inf(-1)
	if col > 0 {
		needX = cell.MinX()
	}
	needY := math.Inf(1)
	if row > 0 {
		needY = cell.MaxY()
	}
	pl.matchPruned(cd, pruneX, pruneY, needX, needY, func(assign []int) {
		if part.CellOf(dupPoint(cd, assign)) == c {
			emit(assign)
		}
	})
}

// matchPruned is the shared backtracking core. Partial assignments are
// abandoned when their running dup point provably cannot end up owned
// by the target cell: the running max start-x reaching pruneX (or min
// start-y reaching pruneY) can never shrink back, and conversely, when
// even the largest start-x among all remaining slots' local items
// cannot lift the final point up to needX (or the smallest start-y
// cannot push it down to needY), no extension can help either.
// Infinite bounds disable the respective prune.
//
// Whether an item at the first position survives those prunes depends
// on the item alone, so they filter that slot once, before the sweep
// pairs it with the second position's slot (sweep.JoinSorted along the
// plan's first edge). Each pair the sweep reports is then extended by
// strip probes, one slot per later position.
func (pl *plan) matchPruned(cd *cellData, pruneX, pruneY, needX, needY float64, emit func(assign []int)) {
	for s := 0; s < pl.m; s++ {
		if len(cd.ids[s]) == 0 {
			return // some slot has no local items: no tuples here
		}
	}
	st := &cd.match
	*st = matchState{
		pl: pl, cd: cd, emit: emit,
		assign: zeroed(st.assign, pl.m), runX: zeroed(st.runX, pl.m), runY: zeroed(st.runY, pl.m),
		onProbe: st.onProbe, sufMaxX: st.sufMaxX[:0], sufMinY: st.sufMinY[:0],
		pruneX: pruneX, pruneY: pruneY, needX: needX, needY: needY,
	}
	for i := range st.assign {
		st.assign[i] = -1
	}
	for p := len(st.onProbe); p < pl.m; p++ {
		st.onProbe = append(st.onProbe, func(j int) bool {
			if st.accepts(p, j) {
				st.step(p, j)
			}
			return true
		})
	}
	if !math.IsInf(needX, -1) || !math.IsInf(needY, 1) {
		// Suffix maxima/minima over the plan order bound what later
		// positions can still contribute to the dup point.
		st.sufMaxX, st.sufMinY = zeroed(st.sufMaxX, pl.m+1), zeroed(st.sufMinY, pl.m+1)
		st.sufMaxX[pl.m] = math.Inf(-1)
		st.sufMinY[pl.m] = math.Inf(1)
		for p := pl.m - 1; p >= 0; p-- {
			s := pl.order[p]
			maxX, minY := math.Inf(-1), math.Inf(1)
			for _, r := range cd.rects[s] {
				maxX = math.Max(maxX, r.X)
				minY = math.Min(minY, r.Y)
			}
			st.sufMaxX[p] = math.Max(st.sufMaxX[p+1], maxX)
			st.sufMinY[p] = math.Min(st.sufMinY[p+1], minY)
		}
	}
	st.runX[0], st.runY[0] = math.Inf(-1), math.Inf(1)

	// as are the first slot's admitted items, keep their positions in it;
	// as is the slot itself where every item is admitted, as in a cell of
	// a replicating method's.
	s0 := pl.order[0]
	as, keep := cd.rects[s0], reserve(cd.keep, len(cd.rects[s0]))
	for j := range as {
		if _, _, ok := st.admit(0, j); ok {
			keep = append(keep, int32(j))
		}
	}
	if cd.keep = keep; len(keep) < len(as) {
		cd.as = reserve(cd.as, len(keep))
		for _, j := range keep {
			cd.as = append(cd.as, as[j])
		}
		as = cd.as
	}
	if pl.m == 1 {
		for _, j := range keep {
			st.assign[s0] = int(j)
			emit(st.assign)
		}
		return
	}
	e := pl.edgesToPrev[1][pl.primary[1]]
	bound := -1
	cd.join.JoinSorted(as, cd.rects[pl.order[1]], e.Pred.Weight(), func(i, k int) bool {
		if i != bound {
			bound = i
			j := int(keep[i])
			st.assign[s0] = j
			st.runX[1], st.runY[1], _ = st.admit(0, j)
		}
		if st.accepts(1, k) {
			st.step(1, k)
		}
		return true
	})
}

// matchState is the search over one cell, kept in its cellData.
type matchState struct {
	pl     *plan
	cd     *cellData
	assign []int
	// runX[p], runY[p] carry the running duplicate-avoidance point of
	// the members assigned before position p of the plan order.
	runX, runY []float64
	// onProbe[p] is position p's strip-probe callback, built once per
	// working set so the search allocates nothing per probe.
	onProbe        []func(j int) bool
	emit           func([]int)
	pruneX, pruneY float64
	// needX/needY with sufMaxX/sufMinY implement the suffix-bound
	// prune; an empty sufMaxX disables it.
	needX, needY     float64
	sufMaxX, sufMinY []float64
}

// accepts verifies the non-primary edges and distinctness for binding
// item j at position p given the current partial assignment; the
// primary edge is what the sweep or the strip probe already tested.
func (st *matchState) accepts(p, j int) bool {
	pl := st.pl
	s := pl.order[p]
	for i, e := range pl.edgesToPrev[p] {
		if i == pl.primary[p] {
			continue
		}
		t := e.Other(s)
		k := st.assign[t]
		if !e.Pred.Eval(st.cd.rects[s][j], st.cd.rects[t][k]) {
			return false
		}
	}
	if pl.distinct {
		for t := 0; t < pl.m; t++ {
			k := st.assign[t]
			if k >= 0 && !pl.compatible(t, st.cd.ids[t][k], s, st.cd.ids[s][j]) {
				return false
			}
		}
	}
	return true
}

// extend advances the backtracking search at position p ≥ 2 of the
// plan order: slot order[p]'s strips are probed with the rectangle
// bound at the other end of the primary edge.
func (st *matchState) extend(p int) {
	pl := st.pl
	s := pl.order[p]
	e := pl.edgesToPrev[p][pl.primary[p]]
	t := e.Other(s)
	d := e.Pred.Weight()
	st.cd.strips.of(s, d).Probe(st.cd.rects[t][st.assign[t]], d, st.onProbe[p])
}

// admit computes the running dup point with item j bound at position
// p, and whether the cell can still own the point of a tuple built on
// it.
func (st *matchState) admit(p, j int) (nx, ny float64, ok bool) {
	r := st.cd.rects[st.pl.order[p]][j]
	nx, ny = st.runX[p], st.runY[p]
	if r.X > nx {
		nx = r.X
	}
	if r.Y < ny {
		ny = r.Y
	}
	if nx >= st.pruneX || ny <= st.pruneY {
		return nx, ny, false // the dup point has left this reducer's cell for good
	}
	// Even the best remaining members cannot pull the dup point into the
	// cell's column/row.
	if len(st.sufMaxX) != 0 && (math.Max(nx, st.sufMaxX[p+1]) < st.needX || math.Min(ny, st.sufMinY[p+1]) > st.needY) {
		return nx, ny, false
	}
	return nx, ny, true
}

// step binds item j at position p ≥ 1, unless the dup point provably
// ends outside this reducer's cell, and searches on.
func (st *matchState) step(p, j int) {
	nx, ny, ok := st.admit(p, j)
	if !ok {
		return
	}
	s := st.pl.order[p]
	st.assign[s] = j
	if p == st.pl.m-1 {
		st.emit(st.assign)
	} else {
		st.runX[p+1], st.runY[p+1] = nx, ny
		st.extend(p + 1)
	}
	st.assign[s] = -1
}

// dupPoint computes the §6.2 duplicate-avoidance point of an
// assignment: the x coordinate of the rightmost start-point and the y
// coordinate of the lowermost start-point among the tuple's
// rectangles.
func dupPoint(cd *cellData, assign []int) geom.Point {
	var pt geom.Point
	first := true
	for s, j := range assign {
		r := cd.rects[s][j]
		if first {
			pt = geom.Point{X: r.X, Y: r.Y}
			first = false
			continue
		}
		if r.X > pt.X {
			pt.X = r.X
		}
		if r.Y < pt.Y {
			pt.Y = r.Y
		}
	}
	return pt
}
