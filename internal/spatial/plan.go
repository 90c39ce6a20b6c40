package spatial

import (
	"fmt"
	"math"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/index"
	"mwsjoin/internal/query"
)

// plan precomputes the query-dependent state shared by every reducer:
// the slot visit order for backtracking, the probe edge per position,
// self-join slot groups, and (for C-Rep-L) the per-slot replication
// radii. A plan is immutable after construction and safe for concurrent
// use.
type plan struct {
	q        *query.Query
	m        int
	distinct bool // forbid binding one rectangle to two slots of the same dataset

	// order is a connected visit order over slots: every slot after
	// the first has at least one edge to an earlier slot.
	order []int
	// edgesToPrev[p] are the query edges from slot order[p] to slots
	// earlier in the order; primary[p] indexes the edge used for index
	// probing (the rest are verified as filters).
	edgesToPrev [][]query.Edge
	primary     []int
	// sameDataset[i][j] marks slot pairs bound to the same dataset.
	sameDataset [][]bool
	// rtreeFrom is the slot size from which newIndex builds the R-tree:
	// the rtreeFrom constant unless a test overrode it.
	rtreeFrom int
}

// The slot-size cut-offs of newIndex: a linear scan below
// linearScanBelow records, the bucket grid below rtreeFrom, the STR
// R-tree from there. No one structure wins every size band (ROADMAP
// 3(b)), so a better rule would follow skew, not a user-set number.
const (
	linearScanBelow = 16
	rtreeFrom       = 256
)

// rtreeFromOverride, when non-zero, replaces rtreeFrom in the plans
// built while it is set. Only tests write it (export_test.go), to force
// the R-tree onto every indexed slot or to keep it off.
var rtreeFromOverride int

// newPlan validates the query/relation binding and builds the plan.
func newPlan(q *query.Query, rels []Relation, distinct bool) (*plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	m := q.NumSlots()
	if len(rels) != m {
		return nil, fmt.Errorf("spatial: query has %d slots but %d relations were bound", m, len(rels))
	}
	pl := &plan{q: q, m: m, distinct: distinct, rtreeFrom: rtreeFrom}
	if rtreeFromOverride != 0 {
		pl.rtreeFrom = rtreeFromOverride
	}

	// Same-dataset groups, by relation name.
	pl.sameDataset = make([][]bool, m)
	for i := range pl.sameDataset {
		pl.sameDataset[i] = make([]bool, m)
		for j := range pl.sameDataset[i] {
			pl.sameDataset[i][j] = i != j && rels[i].Name == rels[j].Name
		}
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

// newIndex builds the reducer-local index over rects, chosen from the
// observed slot size alone: a linear scan below linearScanBelow, then
// the bucket grid, escalated to the STR R-tree from pl.rtreeFrom (the
// bucket grid degrades when a skewed cell piles thousands of rectangles
// into few buckets). All three report the same match set, so the choice
// never changes emitted tuples.
func (pl *plan) newIndex(rects []geom.Rect) index.Index {
	switch {
	case len(rects) < linearScanBelow:
		return index.NewLinear(rects)
	case len(rects) < pl.rtreeFrom:
		return index.NewGrid(rects)
	}
	return index.NewRTree(rects)
}

// cellData is the per-reducer view of the shuffled rectangles: ids and
// rects per slot, parallel slices.
type cellData struct {
	ids   [][]int32
	rects [][]geom.Rect
}

// newCellData groups tagged items by slot.
func newCellData(m int, items []tagged) *cellData {
	cd := &cellData{ids: make([][]int32, m), rects: make([][]geom.Rect, m)}
	for _, it := range items {
		s := int(it.Slot)
		cd.ids[s] = append(cd.ids[s], it.ID)
		cd.rects[s] = append(cd.rects[s], it.Rect)
	}
	return cd
}

// match enumerates every assignment of local items to slots that
// satisfies all query conditions and invokes emit with assign[slot] =
// local item index. Assignments are found by backtracking in plan
// order, probing the configured spatial index for candidates along the
// primary edge and verifying remaining edges as filters. emit must not
// retain assign.
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
func (pl *plan) matchPruned(cd *cellData, pruneX, pruneY, needX, needY float64, emit func(assign []int)) {
	for s := 0; s < pl.m; s++ {
		if len(cd.ids[s]) == 0 {
			return // some slot has no local items: no tuples here
		}
	}
	st := &matchState{
		pl: pl, cd: cd,
		assign:  make([]int, pl.m),
		indexes: make([]index.Index, pl.m),
		runX:    make([]float64, pl.m),
		runY:    make([]float64, pl.m),
		onProbe: make([]func(int) bool, pl.m),
		emit:    emit,
		pruneX:  pruneX,
		pruneY:  pruneY,
		needX:   needX,
		needY:   needY,
	}
	for i := range st.assign {
		st.assign[i] = -1
	}
	for p := 1; p < pl.m; p++ {
		st.onProbe[p] = func(j int) bool {
			if st.accepts(p, j) {
				st.step(p, j)
			}
			return true
		}
	}
	if !math.IsInf(needX, -1) || !math.IsInf(needY, 1) {
		// Suffix maxima/minima over the plan order bound what later
		// positions can still contribute to the dup point.
		st.sufMaxX = make([]float64, pl.m+1)
		st.sufMinY = make([]float64, pl.m+1)
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
	st.extend(0)
}

type matchState struct {
	pl      *plan
	cd      *cellData
	assign  []int
	indexes []index.Index
	// runX[p], runY[p] carry the running duplicate-avoidance point of
	// the members assigned before position p of the plan order.
	runX, runY []float64
	// onProbe[p] is position p's index-probe callback, built once per
	// cell so the search allocates nothing per probe.
	onProbe        []func(j int) bool
	emit           func([]int)
	pruneX, pruneY float64
	// needX/needY with sufMaxX/sufMinY implement the suffix-bound
	// prune; sufMaxX nil disables it.
	needX, needY     float64
	sufMaxX, sufMinY []float64
}

// indexFor lazily builds the index over slot s's local rectangles.
func (st *matchState) indexFor(s int) index.Index {
	if st.indexes[s] == nil {
		st.indexes[s] = st.pl.newIndex(st.cd.rects[s])
	}
	return st.indexes[s]
}

// accepts verifies the non-primary edges and distinctness for binding
// item j at position p given the current partial assignment; the
// primary edge is what the index probe already tested.
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

// extend advances the backtracking search at position p of the plan
// order: every local item at the first position, the index's matches
// along the primary edge at the later ones.
func (st *matchState) extend(p int) {
	pl := st.pl
	s := pl.order[p]
	if p == 0 {
		for j := range st.cd.ids[s] {
			st.step(p, j)
		}
		return
	}
	e := pl.edgesToPrev[p][pl.primary[p]]
	t := e.Other(s)
	st.indexFor(s).Probe(st.cd.rects[t][st.assign[t]], e.Pred.Weight(), st.onProbe[p])
}

// step binds item j at position p, unless the dup point provably ends
// outside this reducer's cell, and searches on.
func (st *matchState) step(p, j int) {
	pl := st.pl
	s := pl.order[p]
	r := st.cd.rects[s][j]
	nx, ny := st.runX[p], st.runY[p]
	if r.X > nx {
		nx = r.X
	}
	if r.Y < ny {
		ny = r.Y
	}
	if nx >= st.pruneX || ny <= st.pruneY {
		return // the dup point has left this reducer's cell for good
	}
	if st.sufMaxX != nil {
		// Even the best remaining members cannot pull the dup
		// point into the cell's column/row.
		if math.Max(nx, st.sufMaxX[p+1]) < st.needX {
			return
		}
		if math.Min(ny, st.sufMinY[p+1]) > st.needY {
			return
		}
	}
	st.assign[s] = j
	if p == pl.m-1 {
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

// tupleSlab carves output tuples from chunks of one []int32 instead of
// allocating each tuple: the first chunk holds 64 tuples, each further
// one twice the last up to 8,192, so a sparse cell wastes little and a
// hot one allocates rarely. The zero value is ready to use.
type tupleSlab struct {
	free  []int32
	chunk int // tuples the last chunk was sized for
}

// tupleOf materialises the output tuple of an assignment.
func (sl *tupleSlab) tupleOf(cd *cellData, assign []int) Tuple {
	m := len(assign)
	if len(sl.free) < m {
		sl.chunk = min(max(64, 2*sl.chunk), 8192)
		sl.free = make([]int32, sl.chunk*m)
	}
	ids := sl.free[:m:m]
	sl.free = sl.free[m:]
	for s, j := range assign {
		ids[s] = cd.ids[s][j]
	}
	return Tuple{IDs: ids}
}
