package spatial

import (
	"slices"
	"testing"

	"mwsjoin/internal/query"
)

// TestPartialLayout holds plan.layout to its rule on a chain, a chain
// with a range primary, an overlap filter and a self-join, a star and a
// cycle: member pos of a p-member record keeps its rectangle exactly
// when an edge of round p or a later one reads it; every round's key and
// filter members are kept in its input layout; the final layout is the
// count and m ids; and a layout keeping every rectangle is 2 + 36n.
func TestPartialLayout(t *testing.T) {
	named := func(names ...string) []Relation {
		rels := make([]Relation, len(names))
		for i, name := range names {
			rels[i] = NewRelation(name, nil)
		}
		return rels
	}
	for _, c := range []struct {
		name string
		q    *query.Query
		rels []Relation
		// kept[p] is the layout of p-member records, 1 ≤ p < m, in plan
		// order, which is slot order for all of these.
		kept [][]bool
	}{
		{"q2", query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2), named("R1", "R2", "R3"),
			[][]bool{nil, {true}, {false, true}}},
		{"chain4", query.New("A", "B", "C", "D").Range(0, 1, 15).Overlap(1, 2).Overlap(0, 2).Range(2, 3, 10), named("A", "B", "C", "A"),
			[][]bool{nil, {true}, {true, true}, {false, false, true}}},
		{"star", query.New("S", "A", "B", "C").Overlap(0, 1).Overlap(0, 2).Range(0, 3, 5), named("S", "A", "B", "C"),
			[][]bool{nil, {true}, {true, false}, {true, false, false}}},
		{"cycle", query.New("A", "B", "C", "D").Overlap(0, 1).Overlap(1, 2).Overlap(2, 3).Range(3, 0, 7), named("A", "B", "C", "D"),
			[][]bool{nil, {true}, {true, true}, {true, false, true}}},
	} {
		pl, err := newPlan(c.q, c.rels, true)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(pl.order, []int{0, 1, 2, 3}[:pl.m]) {
			t.Fatalf("%s: plan order %v, want slot order", c.name, pl.order)
		}
		for p := 1; p <= pl.m; p++ {
			l := pl.layout(p)
			want := make([]bool, p)
			if p < pl.m {
				want = c.kept[p]
			}
			if !slices.Equal(l.rect, want) {
				t.Errorf("%s: %d-member layout keeps rectangles %v, want %v", c.name, p, l.rect, want)
			}
			// Kept exactly when round p or a later one reads it.
			for pos := range p {
				read := false
				for q := p; q < pl.m; q++ {
					for _, e := range pl.edgesToPrev[q] {
						read = read || e.Other(pl.order[q]) == pl.order[pos]
					}
				}
				if l.rect[pos] != read {
					t.Errorf("%s: %d-member layout keeps member %d's rectangle: %v, read later: %v", c.name, p, pos, l.rect[pos], read)
				}
			}
			if p < pl.m {
				// Round p's key and filters read members of its input.
				for _, e := range pl.edgesToPrev[p] {
					if pos := planPos(pl, e.Other(pl.order[p])); !l.rect[pos] {
						t.Errorf("%s: round %d reads member %d, whose rectangle its input drops", c.name, p, pos)
					}
				}
			}
			kept := 0
			for _, k := range l.rect {
				if k {
					kept++
				}
			}
			if l.members() != p || l.stride != 2+4*p+rectBytes*kept {
				t.Errorf("%s: %d-member layout holds %d members in %d bytes", c.name, p, l.members(), l.stride)
			}
		}
		if got := pl.layout(pl.m).stride; got != 2+4*pl.m {
			t.Errorf("%s: final records are %d bytes, want %d", c.name, got, 2+4*pl.m)
		}
	}
	for n := 1; n <= 8; n++ {
		if got := allKept(n).stride; got != 2+36*n {
			t.Errorf("a %d-member layout keeping every rectangle is %d bytes, want %d", n, got, 2+36*n)
		}
	}
}
