package spatial

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/query"
)

// TestOptimizeOrderPicksCheapEdgeFirst: chain R1–R2–R3 where R1⋈R2 is
// dense (big rectangles) and R2⋈R3 is sparse. The cost-based order must
// start with the sparse pair and join the dense relation last, instead
// of the connectivity default (0, 1, 2).
func TestOptimizeOrderPicksCheapEdgeFirst(t *testing.T) {
	rng := rand.New(rand.NewPCG(90, 1))
	mk := func(name string, n int, dim float64) Relation {
		rects := make([]geom.Rect, n)
		for i := range rects {
			rects[i] = geom.Rect{
				X: rng.Float64() * 1000, Y: rng.Float64() * 1000,
				L: rng.Float64() * dim, B: rng.Float64() * dim,
			}
		}
		return NewRelation(name, rects)
	}
	rels := []Relation{
		mk("R1", 400, 150), // big rectangles: dense joins
		mk("R2", 400, 150),
		mk("R3", 400, 2), // tiny rectangles: sparse joins
	}
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	est, err := newEstimator(q, rels, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(est.plan(false).order, []int{0, 1, 2}) {
		t.Fatalf("default order = %v", est.plan(false).order)
	}
	pl := est.plan(true)
	if !reflect.DeepEqual(pl.order, []int{1, 2, 0}) {
		t.Errorf("optimized order = %v, want [1 2 0] (sparse edge first)", pl.order)
	}
	if !reflect.DeepEqual(est.plan(false).order, []int{0, 1, 2}) {
		t.Errorf("optimizing rewrote the default plan's order to %v", est.plan(false).order)
	}
	// The rebuilt backward edges stay consistent: each later slot
	// connects to an earlier one.
	for p := 1; p < pl.m; p++ {
		if len(pl.edgesToPrev[p]) == 0 {
			t.Errorf("position %d lost its backward edges", p)
		}
	}
}

// TestOptimizeOrderResultsUnchanged: the optimizer must never change
// what a query returns, for any method.
func TestOptimizeOrderResultsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 2))
	part := testGrid(t, 4, 1000)
	q := query.New("R1", "R2", "R3", "R4").
		Overlap(0, 1).Range(1, 2, 40).Overlap(2, 3)
	rels := randomRelations(rng, 4, 90, 1000, 60)
	want, err := Execute(BruteForce, q, rels, Config{Part: part})
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []Method{Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit} {
		got, err := Execute(method, q, rels, Config{Part: part, OptimizeOrder: true})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if !reflect.DeepEqual(got.TupleSet(), want.TupleSet()) {
			t.Errorf("%v with optimizer: %d tuples, want %d", method, len(got.Tuples), len(want.Tuples))
		}
	}
}

// TestOptimizeOrderReducesCascadeTraffic: on the skewed workload above,
// the optimized cascade must shuffle fewer intermediate pairs than the
// connectivity-ordered one.
func TestOptimizeOrderReducesCascadeTraffic(t *testing.T) {
	rng := rand.New(rand.NewPCG(92, 3))
	mk := func(name string, n int, dim float64) Relation {
		rects := make([]geom.Rect, n)
		for i := range rects {
			rects[i] = geom.Rect{
				X: rng.Float64() * 1000, Y: rng.Float64() * 1000,
				L: rng.Float64() * dim, B: rng.Float64() * dim,
			}
		}
		return NewRelation(name, rects)
	}
	rels := []Relation{mk("R1", 500, 120), mk("R2", 500, 120), mk("R3", 500, 2)}
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	part := testGrid(t, 4, 1000)

	plain, err := Execute(Cascade, q, rels, Config{Part: part})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Execute(Cascade, q, rels, Config{Part: part, OptimizeOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.TupleSet(), opt.TupleSet()) {
		t.Fatal("optimizer changed cascade results")
	}
	if opt.Stats.IntermediatePairs() >= plain.Stats.IntermediatePairs() {
		t.Errorf("optimized cascade shuffled %d pairs, plain %d — expected a reduction",
			opt.Stats.IntermediatePairs(), plain.Stats.IntermediatePairs())
	}
}

// TestOptimizeOrderTwoSlotsNoop: nothing to reorder for binary joins.
func TestOptimizeOrderTwoSlotsNoop(t *testing.T) {
	q := query.New("A", "B").Overlap(0, 1)
	rels := []Relation{NewRelation("A", nil), NewRelation("B", nil)}
	est, err := newEstimator(q, rels, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if est.plan(true) != est.plan(false) {
		t.Errorf("binary join order changed: %v", est.plan(true).order)
	}
}
