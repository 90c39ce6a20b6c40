package spatial

import (
	"fmt"
	"math/rand/v2"
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

// referenceShape draws slot s's n rectangles in one of four shapes:
// random ones on [0, 500]²; a lattice of multiples of 5, where edges
// touch and gaps equal the lattice distances exactly; random ones
// carried out to (+1e9, −1e9); and the rounding construction of
// TestExtremeCoordinateRangeJoin in both directions — boxes at ±1e9 on
// even slots, points at ±0.29999996 on x on odd ones.
func referenceShape(rng *rand.Rand, n, shape, s int) []geom.Rect {
	rects := make([]geom.Rect, n)
	for i := range rects {
		r := geom.Rect{X: rng.Float64() * 500, Y: rng.Float64() * 500, L: rng.Float64() * 50, B: rng.Float64() * 50}
		switch shape {
		case 1:
			r = geom.Rect{X: 5 * float64(rng.IntN(21)), Y: 5 * float64(rng.IntN(21)), L: 5 * float64(rng.IntN(4)), B: 5 * float64(rng.IntN(4))}
		case 2:
			r.X += 1e9
			r.Y -= 1e9
		case 3:
			switch side := rng.IntN(2); {
			case s%2 == 1:
				r = geom.Rect{X: 0.29999996 * float64(2*side-1), Y: float64(rng.IntN(40))/4 - 5}
			case side == 0:
				r = geom.Rect{X: 1e9, Y: 20, L: 1, B: 40}
			default:
				r = geom.Rect{X: -1e9 - 1, Y: 20, L: 1, B: 40}
			}
		}
		rects[i] = r
	}
	return rects
}

// TestBruteForceMatchesReference holds BruteForce — the oracle every
// method's battery compares against — to the kernel-free reference on
// random small relations: chains with ov and ra(d) edges, closed
// triangles, self-joins with and without self pairs, and the four
// shapes of referenceShape, whose distances are lattice-exact on one
// and, on the last, d ≈ 1e9 + 0.3.
func TestBruteForceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(2013, 28))
	for trial := 0; trial < 160; trial++ {
		shape := trial % 4
		nSlots := 2 + rng.IntN(2)
		n := 1 + rng.IntN(30)
		rels := make([]Relation, nSlots)
		slots := make([]string, nSlots)
		selfJoin := rng.IntN(4) == 0
		for s := range rels {
			slots[s] = fmt.Sprintf("R%d", s+1)
			rels[s] = NewRelation(slots[s], referenceShape(rng, n, shape, s))
			if selfJoin {
				rels[s] = rels[0]
				slots[s] = fmt.Sprint("S", s)
			}
		}
		q := randomPropertyQuery(rng, slots)
		if shape == 1 {
			q = query.New(slots...)
			for s := 1; s < nSlots; s++ {
				if rng.IntN(2) == 0 {
					q.Overlap(s-1, s)
				} else {
					q.Range(s-1, s, 5*float64(1+rng.IntN(3)))
				}
			}
		}
		if shape == 3 {
			q = query.New(slots...)
			for s := 1; s < nSlots; s++ {
				q.Range(s-1, s, 1e9+0.3)
			}
		}
		selfPairs := selfJoin && rng.IntN(2) == 0
		res, err := Execute(BruteForce, q, rels, Config{AllowSelfPairs: selfPairs})
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, q, err)
		}
		want := referenceTuples(q, rels, selfPairs)
		if got := tupleMultiset(res); !slices.Equal(got, want) {
			t.Errorf("trial %d (%s, shape %d, self pairs %v): brute force %d tuples, the reference %d",
				trial, q, shape, selfPairs, len(got), len(want))
		}
	}
}
