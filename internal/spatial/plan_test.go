package spatial

import (
	"reflect"
	"testing"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/query"
)

func TestNewPlanOrderConnectivity(t *testing.T) {
	// Star query centred on slot 2: the order must start at 0 and only
	// append slots connected to the visited set.
	q := query.New("A", "B", "C", "D").Overlap(2, 0).Overlap(2, 1).Overlap(2, 3)
	rels := []Relation{
		NewRelation("A", nil), NewRelation("B", nil),
		NewRelation("C", nil), NewRelation("D", nil),
	}
	pl, err := newPlan(q, rels, true)
	if err != nil {
		t.Fatal(err)
	}
	if pl.order[0] != 0 {
		t.Errorf("order starts at %d, want 0", pl.order[0])
	}
	seen := map[int]bool{pl.order[0]: true}
	for p := 1; p < pl.m; p++ {
		s := pl.order[p]
		connected := false
		for _, e := range q.EdgesAt(s) {
			if seen[e.Other(s)] {
				connected = true
			}
		}
		if !connected {
			t.Errorf("order[%d]=%d not connected to visited set", p, s)
		}
		if len(pl.edgesToPrev[p]) == 0 {
			t.Errorf("position %d has no backward edges", p)
		}
		seen[s] = true
	}
}

func TestNewPlanPrimaryPrefersOverlap(t *testing.T) {
	// Slot 2 connects back via a range edge to 0 and an overlap edge to
	// 1; the overlap edge must be the probe edge.
	q := query.New("A", "B", "C").Overlap(0, 1).Range(0, 2, 50).Overlap(1, 2)
	rels := []Relation{NewRelation("A", nil), NewRelation("B", nil), NewRelation("C", nil)}
	pl, err := newPlan(q, rels, true)
	if err != nil {
		t.Fatal(err)
	}
	p := 2 // third position: slot 2 (order is 0,1,2 by construction)
	if pl.order[p] != 2 {
		t.Fatalf("order = %v", pl.order)
	}
	primary := pl.edgesToPrev[p][pl.primary[p]]
	if primary.Pred.Kind != query.Overlap {
		t.Errorf("primary edge %v is not an overlap probe", primary)
	}
}

func TestNewPlanValidation(t *testing.T) {
	q := query.New("A", "B").Overlap(0, 1)
	if _, err := newPlan(q, []Relation{NewRelation("A", nil)}, true); err == nil {
		t.Error("relation count mismatch must fail")
	}
	bad := query.New("A", "B") // no edges → disconnected
	if _, err := newPlan(bad, []Relation{NewRelation("A", nil), NewRelation("B", nil)}, true); err == nil {
		t.Error("disconnected query must fail")
	}
}

func TestCompatibleSelfJoin(t *testing.T) {
	q := query.New("a", "b", "c").Overlap(0, 1).Overlap(1, 2)
	same := NewRelation("R", nil)
	other := NewRelation("S", nil)
	pl, err := newPlan(q, []Relation{same, same, other}, true)
	if err != nil {
		t.Fatal(err)
	}
	if pl.compatible(0, 5, 1, 5) {
		t.Error("same dataset, same ID must be incompatible")
	}
	if !pl.compatible(0, 5, 1, 6) {
		t.Error("same dataset, different IDs must be compatible")
	}
	if !pl.compatible(0, 5, 2, 5) {
		t.Error("different datasets share IDs freely")
	}
	loose, _ := newPlan(q, []Relation{same, same, other}, false)
	if !loose.compatible(0, 5, 1, 5) {
		t.Error("AllowSelfPairs must disable the distinctness check")
	}
}

// TestDistinctOnlyWithSelfJoin: distinctness is checked only where it
// can refuse a binding, between two slots of one dataset. A plan whose
// slots bind three relations checks nothing; a self-join plan does,
// unless self pairs are allowed.
func TestDistinctOnlyWithSelfJoin(t *testing.T) {
	q := query.New("a", "b", "c").Overlap(0, 1).Overlap(1, 2)
	r, s, u := NewRelation("R", nil), NewRelation("S", nil), NewRelation("U", nil)
	for _, c := range []struct {
		rels []Relation
		self bool
		want bool
	}{
		{[]Relation{r, s, u}, false, false},
		{[]Relation{r, r, s}, false, true},
		{[]Relation{r, s, r}, false, true},
		{[]Relation{r, r, r}, true, false},
	} {
		pl, err := newPlan(q, c.rels, !c.self)
		if err != nil {
			t.Fatal(err)
		}
		if pl.distinct != c.want {
			t.Errorf("relations %s, %s, %s (self pairs allowed: %v): distinct %v, want %v", c.rels[0].Name, c.rels[1].Name, c.rels[2].Name, c.self, pl.distinct, c.want)
		}
	}
}

func TestDupPointAndRowCaps(t *testing.T) {
	items := []tagged{
		{Slot: 0, ID: 7, Rect: geom.Rect{X: 10, Y: 50, L: 5, B: 5}},
		{Slot: 1, ID: 9, Rect: geom.Rect{X: 30, Y: 80, L: 5, B: 5}},
		{Slot: 2, ID: 3, Rect: geom.Rect{X: 20, Y: 40, L: 5, B: 5}},
	}
	cd := newCellData(3, items)
	assign := []int{0, 0, 0}
	// Rightmost start x = 30 (slot 1), lowermost start y = 40 (slot 2).
	if got := dupPoint(cd, assign); got != (geom.Point{X: 30, Y: 40}) {
		t.Errorf("dupPoint = %v, want (30, 40)", got)
	}
	// Rows of one slab are neighbours in memory: each row At returns, and
	// each tuple Tuples carves, must be capped at its own m ids, so
	// appending to one cannot reach the next.
	rows := Rows{Arity: 3}
	for range 2 {
		for s, j := range assign {
			rows.IDs = append(rows.IDs, cd.ids[s][j])
		}
	}
	_ = append(rows.At(0), 99)
	tuples := rows.Tuples()
	_ = append(tuples[0].IDs, 98)
	for i, got := range [][]int32{rows.At(0), rows.At(1), tuples[0].IDs, tuples[1].IDs} {
		if !reflect.DeepEqual(got, []int32{7, 9, 3}) {
			t.Errorf("row %d = %v", i, got)
		}
	}
	// A nil slab carves nil, an empty one an empty, non-nil result.
	if got := (Rows{Arity: 3}).Tuples(); got != nil {
		t.Errorf("nil slab carved %v", got)
	}
	if got := (Rows{Arity: 3, IDs: []int32{}}).Tuples(); got == nil || len(got) != 0 {
		t.Errorf("empty slab carved %#v", got)
	}
}

func TestMatchEmptySlotShortCircuits(t *testing.T) {
	q := query.New("A", "B").Overlap(0, 1)
	rels := []Relation{NewRelation("A", nil), NewRelation("B", nil)}
	pl, _ := newPlan(q, rels, true)
	cd := newCellData(2, []tagged{{Slot: 0, ID: 1, Rect: geom.Rect{L: 1, B: 1}}})
	called := false
	pl.match(cd, func([]int) { called = true })
	if called {
		t.Error("match with an empty slot must produce nothing")
	}
}

func TestPlanPosPanicsOnUnknownSlot(t *testing.T) {
	q := query.New("A", "B").Overlap(0, 1)
	pl, _ := newPlan(q, []Relation{NewRelation("A", nil), NewRelation("B", nil)}, true)
	if planPos(pl, 1) != 1 {
		t.Error("planPos(1) wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("planPos with unknown slot must panic")
		}
	}()
	planPos(pl, 9)
}
