package spatial

import (
	"slices"
	"sort"
	"testing"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/query"
)

// tupleMultiset renders a result as a sorted list of canonical tuple
// keys. Unlike TupleSet it preserves multiplicity, so a pair reported
// by two reducers (a broken duplicate-avoidance rule) is detected even
// when the duplicate would collapse in a set.
func tupleMultiset(res *Result) []string {
	keys := make([]string, len(res.Tuples))
	for i, tu := range res.Tuples {
		keys[i] = tu.Key()
	}
	sort.Strings(keys)
	return keys
}

func assertMultisetsEqual(t *testing.T, ctx string, m Method, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %v produced %d tuples, brute force %d", ctx, m, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: %v tuple multiset diverges from brute force at %d", ctx, m, i)
			return
		}
	}
}

// degenerateRects builds rectangles engineered to sit exactly on the
// integer grid cuts: point rectangles on cut intersections and grid
// boundaries, zero-width vertical and zero-height horizontal segments
// lying on cuts, and cell-aligned rectangles whose every edge touches
// a cut. These exercise the half-open cell-ownership rule and the §5.2
// / §6.2 duplicate-avoidance points in all the places where "on the
// boundary" is ambiguous.
func degenerateRects() []geom.Rect {
	return []geom.Rect{
		{X: 2, Y: 2, L: 0, B: 0},     // point on an interior cut intersection
		{X: 1, Y: 3, L: 0, B: 1},     // zero-width segment on cut x=1
		{X: 0.5, Y: 2, L: 1, B: 0},   // zero-height segment on cut y=2
		{X: 2, Y: 3, L: 0, B: 2},     // zero-width segment crossing cut y=2
		{X: 1, Y: 1, L: 2, B: 0},     // zero-height segment crossing cuts x=2,3
		{X: 3, Y: 4, L: 0, B: 0},     // point on the top boundary
		{X: 0, Y: 2, L: 0, B: 0},     // point on the left boundary
		{X: 4, Y: 1, L: 0, B: 0},     // point on the right boundary (clamped)
		{X: 2, Y: 0, L: 0, B: 0},     // point on the bottom boundary (clamped)
		{X: 1, Y: 2, L: 1, B: 1},     // rectangle exactly covering one cell
		{X: 2, Y: 2, L: 1, B: 1},     // cell-aligned neighbour
		{X: 0, Y: 4, L: 4, B: 4},     // the whole space
		{X: 3, Y: 1, L: 0, B: 1},     // zero-width segment on cut x=3
		{X: 1.5, Y: 2.5, L: 1, B: 1}, // interior rect whose edges cross cuts
	}
}

// TestDegenerateBoundaryRects is the satellite property: zero-extent
// rectangles lying exactly on grid-cell boundaries must produce each
// result pair exactly once under every method's duplicate-avoidance
// rule — the grid assignment (Split/Project/CellOf), the reducer sweep
// (sweep.JoinSorted inside the cascade), and the brute-force reference
// must agree on the exact tuple multiset.
func TestDegenerateBoundaryRects(t *testing.T) {
	part, err := grid.NewFromCuts([]float64{0, 1, 2, 3, 4}, []float64{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	rects := degenerateRects()
	rels3 := []Relation{NewRelation("A", rects), NewRelation("B", rects), NewRelation("C", rects)}

	for _, qs := range []string{
		"A ov B",
		"A ov B and B ov C",
		"A ra(0.5) B and B ov C",
		"A ra(1) B", // range exactly one cell width: enlarged keys land on cuts
	} {
		q, err := query.Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		rels := rels3[:len(q.Slots())]
		want, err := Execute(BruteForce, q, rels, Config{Part: part})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Tuples) == 0 {
			t.Fatalf("%s: degenerate workload produced no tuples — test is vacuous", qs)
		}
		ref := tupleMultiset(want)
		for _, m := range []Method{Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit} {
			res, err := Execute(m, q, rels, Config{Part: part})
			if err != nil {
				t.Fatalf("%s: %v: %v", qs, m, err)
			}
			assertMultisetsEqual(t, qs, m, tupleMultiset(res), ref)
		}
	}
}

// TestRepeatedItemsMatchBruteForce binds relations whose Items repeat a
// record verbatim — one that C-Rep marks and one it does not — and give
// one ID to two different rectangles. Every method must report each
// repeat as often as brute force does.
func TestRepeatedItemsMatchBruteForce(t *testing.T) {
	part, err := grid.NewFromCuts([]float64{0, 2, 4}, []float64{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	crossing := Item{ID: 0, R: geom.Rect{X: 1.5, Y: 3, L: 1, B: 0.5}}   // across x = 2: marked
	interior := Item{ID: 1, R: geom.Rect{X: 0.2, Y: 1, L: 0.3, B: 0.3}} // deep in one cell
	a := Relation{Name: "A", Items: []Item{
		crossing, crossing,
		interior, interior,
		{ID: 2, R: geom.Rect{X: 3.2, Y: 1.2, L: 0.2, B: 0.2}},
		{ID: 2, R: geom.Rect{X: 1.7, Y: 1.2, L: 0.6, B: 0.2}}, // a second ID 2, across x = 2
		{ID: 3, R: geom.Rect{X: 2.2, Y: 3.2, L: 0.3, B: 0.5}}, // meets the crossing A
	}}
	b := NewRelation("B", []geom.Rect{
		{X: 2.3, Y: 2.8, L: 0.5, B: 0.5}, // meets the crossing A in the next cell
		{X: 0.3, Y: 0.9, L: 0.3, B: 0.3}, // meets the interior A
		{X: 3.1, Y: 1.3, L: 0.2, B: 0.3},
		{X: 1.2, Y: 1.3, L: 0.6, B: 0.3},
	})
	c := NewRelation("C", []geom.Rect{{X: 2.4, Y: 2.6, L: 0.2, B: 0.2}, {X: 0.1, Y: 0.6, L: 0.2, B: 0.2}, {X: 3.3, Y: 0.9, L: 0.1, B: 0.1}})
	for _, tc := range []struct {
		qs   string
		rels []Relation
	}{
		{"A ov B", []Relation{a, b}},
		{"A ov B and B ra(0.5) C", []Relation{a, b, c}},
		{"A ov A2 and A2 ov B", []Relation{a, a, b}}, // a self-join over the repeats
	} {
		qs, rels := tc.qs, tc.rels
		q, err := query.Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Execute(BruteForce, q, rels, Config{Part: part})
		if err != nil {
			t.Fatal(err)
		}
		ref := tupleMultiset(want)
		if len(slices.Compact(slices.Clone(ref))) == len(ref) {
			t.Fatalf("%s: brute force reports no repeated tuple — the test is vacuous", qs)
		}
		for _, m := range []Method{Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit} {
			res, err := Execute(m, q, rels, Config{Part: part})
			if err != nil {
				t.Fatalf("%s: %v: %v", qs, m, err)
			}
			assertMultisetsEqual(t, qs, m, tupleMultiset(res), ref)
			if m == ControlledReplicate && res.Stats.RectanglesReplicated == 0 {
				t.Errorf("%s: C-Rep marked nothing — the repeats of a marked record go untested", qs)
			}
		}
	}
}
