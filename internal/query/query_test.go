package query

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mwsjoin/internal/geom"
)

// q2 is the paper's Q2 = R1 Ov R2 and R2 Ov R3.
func q2() *Query { return New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2) }

// q3 is the paper's Q3 = R1 Ra(d) R2 and R2 Ra(d) R3.
func q3(d float64) *Query { return New("R1", "R2", "R3").Range(0, 1, d).Range(1, 2, d) }

func TestPredicateEval(t *testing.T) {
	a := geom.Rect{X: 0, Y: 10, L: 10, B: 10}
	b := geom.Rect{X: 13, Y: 10, L: 5, B: 5} // gap 3 to the right
	if Ov().Eval(a, b) {
		t.Error("disjoint rectangles must not overlap")
	}
	if !Ov().Eval(a, a) {
		t.Error("identical rectangles overlap")
	}
	if !Ra(3).Eval(a, b) || Ra(2.5).Eval(a, b) {
		t.Error("range predicate must compare against min distance 3")
	}
	if got := Ov().Weight(); got != 0 {
		t.Errorf("overlap weight = %v, want 0", got)
	}
	if got := Ra(7).Weight(); got != 7 {
		t.Errorf("range weight = %v, want 7", got)
	}
}

func TestQueryAccessors(t *testing.T) {
	q := New("A", "B", "C").Overlap(0, 1).Range(1, 2, 100)
	if q.NumSlots() != 3 {
		t.Fatalf("NumSlots = %d", q.NumSlots())
	}
	if got := q.Slots(); !reflect.DeepEqual(got, []string{"A", "B", "C"}) {
		t.Errorf("Slots = %v", got)
	}
	if q.SlotIndex("B") != 1 || q.SlotIndex("missing") != -1 {
		t.Error("SlotIndex misbehaves")
	}
	if got := len(q.Edges()); got != 2 {
		t.Errorf("len(Edges) = %d", got)
	}
	if got := q.Neighbors(1); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("Neighbors(1) = %v", got)
	}
	if got := q.Neighbors(0); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("Neighbors(0) = %v", got)
	}
	if got := len(q.EdgesAt(1)); got != 2 {
		t.Errorf("EdgesAt(1) = %d edges", got)
	}
	if q.AllOverlap() || q.AllRange() {
		t.Error("hybrid query must be neither AllOverlap nor AllRange")
	}
	if !q2().AllOverlap() || !q3(5).AllRange() {
		t.Error("pure queries misclassified")
	}
	if got := q.MaxRange(); got != 100 {
		t.Errorf("MaxRange = %v", got)
	}
	if got := q2().MaxRange(); got != 0 {
		t.Errorf("overlap MaxRange = %v", got)
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{A: 2, B: 5}
	if e.Other(2) != 5 || e.Other(5) != 2 {
		t.Error("Other misbehaves")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other with a non-endpoint must panic")
		}
	}()
	e.Other(3)
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		q    *Query
		ok   bool
	}{
		{"q2 valid", q2(), true},
		{"single relation", New("R"), true},
		{"no slots", New(), false},
		{"duplicate slot names", New("R", "R").Overlap(0, 1), false},
		{"empty slot name", New("", "B").Overlap(0, 1), false},
		{"edge out of range", New("A", "B").Overlap(0, 2), false},
		{"self loop", New("A", "B").Overlap(1, 1), false},
		{"negative range", New("A", "B").Range(0, 1, -1), false},
		{"nan range", New("A", "B").Range(0, 1, math.NaN()), false},
		{"disconnected", New("A", "B", "C", "D").Overlap(0, 1).Overlap(2, 3), false},
		{"triangle", New("A", "B", "C").Overlap(0, 1).Overlap(1, 2).Overlap(0, 2), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.q.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestConsistent(t *testing.T) {
	// Chain query Q2 with rectangles u, v, w: u overlaps v, v overlaps
	// w, but u does not overlap w. The paper's §7.3 example: sets are
	// consistent exactly when all *present* edge conditions hold.
	q := q2()
	u := geom.Rect{X: 0, Y: 10, L: 5, B: 5}
	v := geom.Rect{X: 4, Y: 10, L: 5, B: 5}
	w := geom.Rect{X: 8, Y: 10, L: 5, B: 5}
	rects := []geom.Rect{u, v, w}

	all := []bool{true, true, true}
	if !q.Consistent(rects, all) {
		t.Error("full chain assignment must be consistent")
	}
	if !q.SatisfiedTuple(rects) {
		t.Error("full chain assignment must satisfy the query")
	}
	// (u, w) without v is consistent: there is no R1-R3 condition.
	if !q.Consistent(rects, []bool{true, false, true}) {
		t.Error("{u,w} must be consistent — no R1~R3 edge exists")
	}
	// Replace v by a far-away rectangle: {u, v'} is inconsistent.
	far := geom.Rect{X: 50, Y: 50, L: 1, B: 1}
	if q.Consistent([]geom.Rect{u, far, w}, []bool{true, true, false}) {
		t.Error("{u, far} must be inconsistent")
	}
	if q.SatisfiedTuple([]geom.Rect{u, far, w}) {
		t.Error("broken chain must not satisfy the query")
	}
	// Empty and singleton sets are vacuously consistent.
	if !q.Consistent(rects, []bool{false, false, false}) || !q.Consistent(rects, []bool{false, true, false}) {
		t.Error("empty/singleton sets are vacuously consistent")
	}
}

func TestReplicationBoundsChainOverlap(t *testing.T) {
	// §7.9 example: chain R1-R2-R3-R4, all overlap, uniform d_max.
	// R1 and R4 get 2·d_max, R2 and R3 get d_max.
	q := New("R1", "R2", "R3", "R4").Overlap(0, 1).Overlap(1, 2).Overlap(2, 3)
	const dmax = 10.0
	got, err := q.ReplicationBounds([]float64{dmax, dmax, dmax, dmax})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2 * dmax, dmax, dmax, 2 * dmax}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bounds = %v, want %v", got, want)
	}
}

func TestReplicationBoundsChainRange(t *testing.T) {
	// §8 example: chain R1-R2-R3-R4 with Ra(d) everywhere. R1/R4 get
	// 2·d_max + 3·d; R2/R3 get d_max + 2·d.
	const d, dmax = 5.0, 10.0
	q := New("R1", "R2", "R3", "R4").Range(0, 1, d).Range(1, 2, d).Range(2, 3, d)
	got, err := q.ReplicationBounds([]float64{dmax, dmax, dmax, dmax})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2*dmax + 3*d, dmax + 2*d, dmax + 2*d, 2*dmax + 3*d}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bounds = %v, want %v", got, want)
	}
}

func TestReplicationBoundsTwoWayAndHybrid(t *testing.T) {
	// 2-way overlap: (m-2)·d_max = 0.
	q := New("A", "B").Overlap(0, 1)
	got, err := q.ReplicationBounds([]float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []float64{0, 0}) {
		t.Errorf("2-way overlap bounds = %v, want zeros", got)
	}
	// 2-way range: d on both sides.
	q = New("A", "B").Range(0, 1, 9)
	got, err = q.ReplicationBounds([]float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []float64{9, 9}) {
		t.Errorf("2-way range bounds = %v, want 9s", got)
	}
	// Hybrid chain A-ov-B-ra(d)-C with per-slot d_max: the bound for A
	// is d + dmax_B (through B to C); for C it is d + dmax_B; for B it
	// is max(0, d) = d.
	q = New("A", "B", "C").Overlap(0, 1).Range(1, 2, 4)
	got, err = q.ReplicationBounds([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []float64{4 + 2, 4, 4 + 2}) {
		t.Errorf("hybrid bounds = %v, want [6 4 6]", got)
	}
	// A star of ra(210) edges: the centre's bound is the edge weight
	// exactly, whatever the leaves' d_max. Folding d_max into the edges
	// and subtracting it after gave 209.9999999999999 here, and C-Rep-L
	// lost the tuples whose members are exactly 210 apart.
	dmax := 846.5370635713475
	q = New("A", "B", "C").Range(0, 1, 210).Range(0, 2, 210)
	got, err = q.ReplicationBounds([]float64{dmax, dmax, dmax})
	if err != nil {
		t.Fatal(err)
	}
	if want := 210 + dmax + 210; !reflect.DeepEqual(got, []float64{210, want, want}) {
		t.Errorf("star bounds = %v, want [210 %v %v]", got, want, want)
	}
	// Single relation: zero bound.
	got, err = New("A").ReplicationBounds([]float64{5})
	if err != nil || !reflect.DeepEqual(got, []float64{0}) {
		t.Errorf("singleton bounds = %v, %v", got, err)
	}
	// Wrong dmax length.
	if _, err := q2().ReplicationBounds([]float64{1}); err == nil {
		t.Error("mismatched dmax length must fail")
	}
}

func TestReplicationBoundsTriangleShortcut(t *testing.T) {
	// In a triangle the direct edge shortcuts the 2-hop path, so the
	// eccentricity uses the cheaper route.
	q := New("A", "B", "C").Range(0, 1, 10).Range(1, 2, 10).Range(0, 2, 2)
	got, err := q.ReplicationBounds([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// A→B: direct 10 vs via C 2+1+10=13 → 10. A→C: direct 2. So A's
	// bound is 10; same for C; B's bound is 10.
	if !reflect.DeepEqual(got, []float64{10, 10, 10}) {
		t.Errorf("triangle bounds = %v, want [10 10 10]", got)
	}
}

func TestParse(t *testing.T) {
	q, err := Parse("R1 ov R2 and R2 ra(100) R3")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Slots(); !reflect.DeepEqual(got, []string{"R1", "R2", "R3"}) {
		t.Errorf("slots = %v", got)
	}
	edges := q.Edges()
	if len(edges) != 2 || edges[0].Pred.Kind != Overlap || edges[1].Pred.Kind != Range || edges[1].Pred.D != 100 {
		t.Errorf("edges = %v", edges)
	}
	if got := q.String(); got != "R1 ov R2 and R2 ra(100) R3" {
		t.Errorf("String = %q", got)
	}
	// Round-trip: parsing the String form yields the same query.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q2.Edges(), q.Edges()) || !reflect.DeepEqual(q2.Slots(), q.Slots()) {
		t.Error("parse/String round trip failed")
	}
}

func TestParsePredicateAliases(t *testing.T) {
	for _, s := range []string{"ov", "OV", "overlaps", "Overlap"} {
		p, err := parsePredicate(s)
		if err != nil || p.Kind != Overlap {
			t.Errorf("parsePredicate(%q) = %v, %v", s, p, err)
		}
	}
	for _, s := range []string{"ra(5)", "range(5)", "within(5)", "RA(5)"} {
		p, err := parsePredicate(s)
		if err != nil || p.Kind != Range || p.D != 5 {
			t.Errorf("parsePredicate(%q) = %v, %v", s, p, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"R1 ov",
		"R1 almost R2",
		"R1 ra(x) R2",
		"R1 ov R1",                  // self loop
		"R1 ov R2 and R3 ov R4",     // disconnected
		"R1 ov R2 and R2 ra(-3) R3", // negative distance
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", text)
		}
	}
}

func TestStringNoEdges(t *testing.T) {
	q := New("A", "B")
	if got := q.String(); !strings.Contains(got, "A") || !strings.Contains(got, "B") {
		t.Errorf("String = %q", got)
	}
}
