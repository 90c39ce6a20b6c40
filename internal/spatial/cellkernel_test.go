package spatial

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/query"
	"mwsjoin/internal/sweep"
)

// collectPairs records the (i, k) sequence sweep.JoinSorted — the one
// per-cell 2-way kernel cascadeReduce reaches — emits, stopping after
// limit pairs (limit < 0 = unlimited).
func collectPairs(as, bs []geom.Rect, d float64, limit int) (pairs [][2]int) {
	sweep.JoinSorted(as, bs, d, func(i, k int) bool {
		pairs = append(pairs, [2]int{i, k})
		return limit < 0 || len(pairs) < limit
	})
	return pairs
}

// quadraticPairs is the sequence the kernel owes: every (i, k) the
// geom predicates accept, i ascending, then k ascending.
func quadraticPairs(as, bs []geom.Rect, d float64) (pairs [][2]int) {
	for i, a := range as {
		for k, b := range bs {
			if d == 0 && a.Overlaps(b) || d > 0 && a.WithinDist(b, d) {
				pairs = append(pairs, [2]int{i, k})
			}
		}
	}
	return pairs
}

// sortByMinX puts rects in the ascending-MinX order JoinSorted needs.
func sortByMinX(rects []geom.Rect) []geom.Rect {
	out := append([]geom.Rect(nil), rects...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].MinX() < out[j].MinX() })
	return out
}

// denseCases are rect-set pairs covering the degenerate shapes a dense
// cell delivers: zero-width and zero-height rectangles, exact
// duplicates, edge-touching neighbours, and stacked identical x windows
// (an unstriped sweep's quadratic worst case).
func denseCases(rng *rand.Rand) []struct {
	name   string
	as, bs []geom.Rect
} {
	random := func(n int, maxDim float64) []geom.Rect {
		rects := make([]geom.Rect, n)
		for i := range rects {
			l := rng.Float64() * maxDim
			b := rng.Float64() * maxDim
			rects[i] = geom.Rect{X: rng.Float64() * 100, Y: b + rng.Float64()*(100-b), L: l, B: b}
		}
		return sortByMinX(rects)
	}
	dup := geom.Rect{X: 10, Y: 20, L: 5, B: 5}
	dups := make([]geom.Rect, 40)
	for i := range dups {
		dups[i] = dup
	}
	lines := make([]geom.Rect, 50)
	for i := range lines {
		// Zero-width vertical segments stacked on x = 50.
		lines[i] = geom.Rect{X: 50, Y: rng.Float64() * 100, L: 0, B: rng.Float64() * 10}
	}
	touching := []geom.Rect{
		{X: 0, Y: 10, L: 10, B: 10},
		{X: 10, Y: 10, L: 10, B: 10}, // shares the x=10 edge
		{X: 20, Y: 10, L: 10, B: 10},
		{X: 0, Y: 20, L: 10, B: 10}, // shares the y=10 edge with the first
	}
	points := make([]geom.Rect, 30)
	for i := range points {
		points[i] = geom.Rect{X: float64(i % 6), Y: float64(i % 5), L: 0, B: 0}
	}
	return []struct {
		name   string
		as, bs []geom.Rect
	}{
		{"random", random(60, 20), random(45, 20)},
		{"duplicates", dups, sortByMinX(append(random(20, 10), dups[:10]...))},
		{"zero-width-stack", sortByMinX(lines), sortByMinX(lines)},
		{"touching-edges", sortByMinX(touching), sortByMinX(touching)},
		{"points", sortByMinX(points), sortByMinX(points)},
		{"empty-a", nil, random(20, 10)},
		{"empty-b", random(20, 10), nil},
	}
}

// TestJoinSortedDenseMatchesSweep is the per-cell bit-identity check:
// on dense and degenerate cells the striped kernel must emit exactly
// the quadratic reference's pair sequence — same pairs, same order —
// at every distance. (internal/sweep's FuzzJoinSorted holds the same
// property on arbitrary inputs.)
func TestJoinSortedDenseMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(2013, 17))
	for _, tc := range denseCases(rng) {
		for _, d := range []float64{0, 3.5, 200} {
			t.Run(fmt.Sprintf("%s/d=%g", tc.name, d), func(t *testing.T) {
				want := quadraticPairs(tc.as, tc.bs, d)
				if got := collectPairs(tc.as, tc.bs, d, -1); !reflect.DeepEqual(got, want) {
					t.Errorf("kernel pairs differ from the reference: got %d pairs %v, want %d pairs %v",
						len(got), head(got), len(want), head(want))
				}
			})
		}
	}
}

func sumPairs(rounds []*mapreduce.Stats) int64 {
	var n int64
	for _, r := range rounds {
		n += r.IntermediatePairs
	}
	return n
}

func head(pairs [][2]int) [][2]int {
	if len(pairs) > 8 {
		return pairs[:8]
	}
	return pairs
}

// TestJoinSortedDenseEarlyStop: fn returning false stops the kernel at
// a prefix of the full sequence.
func TestJoinSortedDenseEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 23))
	as := make([]geom.Rect, 80)
	for i := range as {
		as[i] = geom.Rect{X: rng.Float64() * 50, Y: 10 + rng.Float64()*40, L: 8, B: 8}
	}
	as = sortByMinX(as)
	full := collectPairs(as, as, 0, -1)
	if len(full) < 10 {
		t.Fatalf("workload too sparse: %d pairs", len(full))
	}
	for _, limit := range []int{1, 3, len(full) / 2} {
		if got := collectPairs(as, as, 0, limit); !reflect.DeepEqual(got, full[:limit]) {
			t.Errorf("limit %d: early-stopped prefix differs from full sequence prefix", limit)
		}
	}
}

// TestJoinSortedDenseNegativeDistance: d < 0 matches nothing.
func TestJoinSortedDenseNegativeDistance(t *testing.T) {
	as := []geom.Rect{{X: 0, Y: 10, L: 10, B: 10}, {X: 5, Y: 10, L: 10, B: 10}}
	if pairs := collectPairs(as, as, -1, -1); len(pairs) != 0 {
		t.Errorf("d<0 emitted %d pairs", len(pairs))
	}
}

// TestCascadeRTreeEscalationBitIdentical runs full executions with the
// R-tree forced onto every indexed slot versus kept off. The cut-off
// governs only the multi-way reducers' per-cell probe index (All-Rep,
// C-Rep), whose choice reorders within-cell emission, so they are held
// to tuple-set identity plus unchanged counts; the cascade's kernel has
// no cut-off, so its tuple slice must match in order.
func TestCascadeRTreeEscalationBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(2013, 29))
	rels := randomRelations(rng, 3, 120, 1000, 60)
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	part := testGrid(t, 4, 1000)
	run := func(method Method, from int) *Result {
		withRTreeFrom(t, from)
		res, err := Execute(method, q, rels, Config{Part: part})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, method := range mrMethods {
		base, forced := run(method, rtreeNever), run(method, rtreeAlways)
		if method == Cascade && !reflect.DeepEqual(forced.Tuples, base.Tuples) {
			t.Errorf("%v: the threshold changed the tuple sequence (%d vs %d tuples)",
				method, len(forced.Tuples), len(base.Tuples))
		}
		if !reflect.DeepEqual(forced.TupleSet(), base.TupleSet()) {
			t.Errorf("%v: forced R-tree escalation changed the tuple set", method)
		}
		if forced.Stats.OutputTuples != base.Stats.OutputTuples {
			t.Errorf("%v: escalation changed output count: %d vs %d", method,
				forced.Stats.OutputTuples, base.Stats.OutputTuples)
		}
		if fp, bp := sumPairs(forced.Stats.Rounds), sumPairs(base.Stats.Rounds); fp != bp {
			t.Errorf("%v: escalation changed shuffle pairs: %d vs %d", method, fp, bp)
		}
	}
}
