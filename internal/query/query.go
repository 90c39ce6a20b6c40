// Package query implements the paper's query model (§1.2): a multi-way
// spatial join query is a conjunction of triples (P, R_a, R_b) where P
// is an Overlap or Range(d) predicate over two relation slots. The
// query is visualised as a join graph with one vertex per relation and
// one edge per triple, weighted 0 for overlap edges and d for range
// edges.
//
// Relation slots are positional: a self-join such as the paper's Q2s
// ("road triples rd1, rd2, rd3") uses three distinct slots that are
// later bound to the same dataset by the executor.
package query

import (
	"fmt"
	"math"
	"strings"

	"mwsjoin/internal/geom"
)

// Kind distinguishes the two spatial predicates of the paper.
type Kind uint8

const (
	// Overlap is true when two rectangles share at least one point.
	Overlap Kind = iota
	// Range is true when two rectangles are within distance D.
	Range
)

// Predicate is a spatial predicate: Ov or Ra(d) in the paper's
// notation.
type Predicate struct {
	Kind Kind
	D    float64 // distance parameter, used only when Kind == Range
}

// Ov returns the overlap predicate.
func Ov() Predicate { return Predicate{Kind: Overlap} }

// Ra returns the range predicate with distance parameter d.
func Ra(d float64) Predicate { return Predicate{Kind: Range, D: d} }

// Eval evaluates the predicate on a pair of rectangles.
func (p Predicate) Eval(a, b geom.Rect) bool {
	if p.Kind == Overlap {
		return a.Overlaps(b)
	}
	return a.WithinDist(b, p.D)
}

// Weight returns the join-graph edge weight: 0 for overlap, d for
// range (§1.2).
func (p Predicate) Weight() float64 {
	if p.Kind == Overlap {
		return 0
	}
	return p.D
}

func (p Predicate) String() string {
	if p.Kind == Overlap {
		return "ov"
	}
	return fmt.Sprintf("ra(%g)", p.D)
}

// Edge is one join condition: the predicate must hold between the
// rectangles bound to slots A and B.
type Edge struct {
	A, B int
	Pred Predicate
}

// Other returns the endpoint of the edge that is not slot i; it panics
// if i is not an endpoint.
func (e Edge) Other(i int) int {
	switch i {
	case e.A:
		return e.B
	case e.B:
		return e.A
	}
	panic(fmt.Sprintf("query: slot %d is not an endpoint of edge %v", i, e))
}

// Query is a multi-way spatial join query: named relation slots plus
// join-condition edges between them. Build one with New, add conditions
// with Overlap/Range/On, then Validate (the executors validate for
// you).
type Query struct {
	slots []string
	edges []Edge
}

// New creates a query over the given relation slots. Slot names must be
// unique; a self-join binds several slots to the same dataset at
// execution time.
func New(slots ...string) *Query {
	return &Query{slots: append([]string(nil), slots...)}
}

// On adds a join condition with an arbitrary predicate between slots a
// and b and returns the query for chaining.
func (q *Query) On(a, b int, p Predicate) *Query {
	q.edges = append(q.edges, Edge{A: a, B: b, Pred: p})
	return q
}

// Overlap adds an overlap condition between slots a and b.
func (q *Query) Overlap(a, b int) *Query { return q.On(a, b, Ov()) }

// Range adds a range-d condition between slots a and b.
func (q *Query) Range(a, b int, d float64) *Query { return q.On(a, b, Ra(d)) }

// NumSlots returns the number of relation slots (m in the paper).
func (q *Query) NumSlots() int { return len(q.slots) }

// Slots returns the slot names.
func (q *Query) Slots() []string { return append([]string(nil), q.slots...) }

// SlotIndex returns the index of the named slot, or -1.
func (q *Query) SlotIndex(name string) int {
	for i, s := range q.slots {
		if s == name {
			return i
		}
	}
	return -1
}

// Edges returns the join conditions.
func (q *Query) Edges() []Edge { return append([]Edge(nil), q.edges...) }

// EdgesAt returns the join conditions incident to slot i.
func (q *Query) EdgesAt(i int) []Edge {
	var out []Edge
	for _, e := range q.edges {
		if e.A == i || e.B == i {
			out = append(out, e)
		}
	}
	return out
}

// Neighbors returns the slots adjacent to slot i in the join graph,
// deduplicated, in ascending order of first appearance.
func (q *Query) Neighbors(i int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, e := range q.edges {
		if e.A != i && e.B != i {
			continue
		}
		j := e.Other(i)
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	return out
}

// Validate checks that the query is well formed: at least one slot,
// unique slot names, edges within range, no self-loop conditions,
// non-negative finite range parameters and a connected join graph.
// Every executor in this module requires a connected graph — a
// disconnected query is a cartesian product, which none of the paper's
// algorithms address.
func (q *Query) Validate() error {
	if len(q.slots) == 0 {
		return fmt.Errorf("query: no relation slots")
	}
	names := make(map[string]bool, len(q.slots))
	for _, s := range q.slots {
		if s == "" {
			return fmt.Errorf("query: empty slot name")
		}
		if names[s] {
			return fmt.Errorf("query: duplicate slot name %q (self-joins use distinct slots bound to one dataset)", s)
		}
		names[s] = true
	}
	for _, e := range q.edges {
		if e.A < 0 || e.A >= len(q.slots) || e.B < 0 || e.B >= len(q.slots) {
			return fmt.Errorf("query: edge %v references a slot out of range [0,%d)", e, len(q.slots))
		}
		if e.A == e.B {
			return fmt.Errorf("query: edge %v joins a slot with itself", e)
		}
		if e.Pred.Kind == Range {
			if math.IsNaN(e.Pred.D) || math.IsInf(e.Pred.D, 0) || e.Pred.D < 0 {
				return fmt.Errorf("query: edge %v has invalid range distance %v", e, e.Pred.D)
			}
		}
	}
	if len(q.slots) > 1 && !q.connected() {
		return fmt.Errorf("query: join graph is not connected")
	}
	return nil
}

// connected reports whether the join graph is connected.
func (q *Query) connected() bool {
	seen := make([]bool, len(q.slots))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range q.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == len(q.slots)
}

// SatisfiedTuple reports whether a full assignment satisfies every join
// condition — the definition of an output tuple.
func (q *Query) SatisfiedTuple(rects []geom.Rect) bool {
	for _, e := range q.edges {
		if !e.Pred.Eval(rects[e.A], rects[e.B]) {
			return false
		}
	}
	return true
}

// ReplicationBounds computes the Controlled-Replicate-in-Limit
// replication radius for each relation slot (§7.9 for overlap queries,
// §8 for range queries, §9 for hybrid queries). dmax[i] is an upper
// bound on the rectangle diagonal of the dataset bound to slot i.
//
// Two rectangles bound to slots i and j can appear in the same output
// tuple only if their distance is at most the path bound
//
//	Σ_{edges e on the i–j path} weight(e) + Σ_{intermediate slots v} dmax[v]
//
// minimised over paths. A slot's radius is the maximum of its path
// bounds to all other slots (its weighted eccentricity), matching the
// paper's (m−2)·d_max (+ (m−1)·d for range chains) for chain queries
// with uniform d_max. A marked rectangle of slot i then only needs to
// be replicated to 4th-quadrant cells within radius[i] of it.
func (q *Query) ReplicationBounds(dmax []float64) ([]float64, error) {
	m := len(q.slots)
	if len(dmax) != m {
		return nil, fmt.Errorf("query: ReplicationBounds needs %d dmax values, got %d", m, len(dmax))
	}
	if m == 1 {
		return []float64{0}, nil
	}
	// Floyd–Warshall on the path bound itself: passing through k adds
	// dmax[k]. Nothing is folded into the edges and taken out again, so
	// a direct edge's bound is its weight exactly; folding the
	// endpoints' dmax in and subtracting it after can round the bound an
	// ulp below the weight and lose the tuple of a pair exactly d apart.
	const inf = math.MaxFloat64
	dist := make([][]float64, m)
	for i := range dist {
		dist[i] = make([]float64, m)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = inf
			}
		}
	}
	for _, e := range q.edges {
		if w := e.Pred.Weight(); w < dist[e.A][e.B] {
			dist[e.A][e.B] = w
			dist[e.B][e.A] = w
		}
	}
	for k := 0; k < m; k++ {
		for i := 0; i < m; i++ {
			if dist[i][k] == inf {
				continue
			}
			for j := 0; j < m; j++ {
				if dist[k][j] == inf {
					continue
				}
				if d := dist[i][k] + dmax[k] + dist[k][j]; d < dist[i][j] {
					dist[i][j] = d
				}
			}
		}
	}
	bounds := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			if dist[i][j] == inf {
				return nil, fmt.Errorf("query: join graph is not connected")
			}
			bounds[i] = math.Max(bounds[i], dist[i][j])
		}
	}
	return bounds, nil
}

// String renders the query in the parseable textual form, e.g.
// "R1 ov R2 and R2 ra(100) R3".
func (q *Query) String() string {
	if len(q.edges) == 0 {
		return strings.Join(q.slots, ", ")
	}
	parts := make([]string, len(q.edges))
	for i, e := range q.edges {
		parts[i] = fmt.Sprintf("%s %s %s", q.slots[e.A], e.Pred, q.slots[e.B])
	}
	return strings.Join(parts, " and ")
}
