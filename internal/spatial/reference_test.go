package spatial

import (
	"slices"
	"testing"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/query"
)

// referenceTuples evaluates q over rels with no join kernel at all:
// nested loops over every combination of one record per slot, kept when
// query.SatisfiedTuple accepts the rectangles and — unless selfPairs —
// no record fills two slots bound to one relation. It returns the
// tuples' keys, sorted, so repeats count, as tupleMultiset does.
func referenceTuples(q *query.Query, rels []Relation, selfPairs bool) []string {
	m := len(rels)
	rects := make([]geom.Rect, m)
	ids := make([]int32, m)
	var out []string
	var rec func(s int)
	rec = func(s int) {
		if s == m {
			if !q.SatisfiedTuple(rects) {
				return
			}
			for i := 0; i < m && !selfPairs; i++ {
				for j := i + 1; j < m; j++ {
					if rels[i].Name == rels[j].Name && ids[i] == ids[j] {
						return
					}
				}
			}
			out = append(out, Tuple{IDs: ids}.Key())
			return
		}
		for _, it := range rels[s].Items {
			rects[s], ids[s] = it.R, it.ID
			rec(s + 1)
		}
	}
	rec(0)
	slices.Sort(out)
	return out
}

// TestExtremeCoordinateRangeJoin joins one rectangle at x = 1e9 with
// points at x = −0.29999996 under ra(1e9 + 0.3). The gap, 1e9 +
// 0.29999996, rounds to the stored d, so geom.Rect.WithinDist accepts
// every pair — and a filter that enlarges the probe by d instead
// (−0.29999995… > −0.29999996) rejects every one. The reducers' bucket
// grid was such a filter, and the brute-force oracle ran the reducers'
// matcher, so every method returned nothing here, the oracle included.
// Forty points were the bucket grid's size band, fifteen the linear
// scan's.
func TestExtremeCoordinateRangeJoin(t *testing.T) {
	const big, gap = 1e9, 0.29999996
	q := query.New("R1", "R2").Range(0, 1, big+0.3)
	for _, n := range []int{40, 15} {
		points := make([]geom.Rect, n)
		for i := range points {
			points[i] = geom.Rect{X: -gap, Y: float64(i)/4 - 5}
		}
		rels := []Relation{NewRelation("R1", []geom.Rect{{X: big, Y: 20, L: 1, B: 40}}), NewRelation("R2", points)}
		want := referenceTuples(q, rels, false)
		if len(want) != n {
			t.Fatalf("n=%d: the predicate accepts %d pairs; the construction is off", n, len(want))
		}
		for _, m := range Methods() {
			res, err := Execute(m, q, rels, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if got := tupleMultiset(res); !slices.Equal(got, want) {
				t.Errorf("n=%d %v: %d tuples, the reference %d", n, m, len(got), len(want))
			}
		}
	}
}
