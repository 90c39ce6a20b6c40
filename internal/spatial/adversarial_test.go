package spatial

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/query"
)

// adversarialGrids builds partitionings that stress the boundary logic:
// non-uniform rectilinear cuts, cuts that coincide with rectangle
// start-points, and a degenerate 1×N grid.
func adversarialGrids(t *testing.T, rels []Relation) map[string]*grid.Partitioning {
	t.Helper()
	nonUniform, err := grid.NewFromCuts(
		[]float64{0, 10, 50, 900, 1000},
		[]float64{0, 300, 310, 320, 1000},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Interior cuts taken from the data's own start-points, so some
	// rectangles begin exactly on a cell boundary.
	xCuts, yCuts := []float64{0, 1000}, []float64{0, 1000}
	for _, rel := range rels {
		xCuts = append(xCuts, rel.Items[0].R.X)
		yCuts = append(yCuts, rel.Items[0].R.Y)
	}
	sort.Float64s(xCuts)
	sort.Float64s(yCuts)
	onData, err := grid.NewFromCuts(xCuts, yCuts)
	if err != nil {
		t.Fatal(err)
	}
	oneRow, err := grid.NewUniform(geom.Rect{X: 0, Y: 1000, L: 1000, B: 1000}, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	oneCell, err := grid.NewUniform(geom.Rect{X: 0, Y: 1000, L: 1000, B: 1000}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*grid.Partitioning{
		"non-uniform": nonUniform,
		"on-data":     onData,
		"one-row":     oneRow,
		"one-cell":    oneCell,
	}
}

// TestMethodsAgreeOnAdversarialGrids re-runs the equivalence suite over
// partitionings with unequal cells: the §4 definition allows any
// rectilinear partitioning and the algorithms must not depend on
// uniformity.
func TestMethodsAgreeOnAdversarialGrids(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 8))
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 40)
	rels := randomRelations(rng, 3, 150, 1000, 60)
	want, err := Execute(BruteForce, q, rels, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, part := range adversarialGrids(t, rels) {
		for _, method := range []Method{Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit} {
			got, err := Execute(method, q, rels, Config{Part: part})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, method, err)
			}
			if !reflect.DeepEqual(got.TupleSet(), want.TupleSet()) {
				t.Errorf("%s/%v: %d tuples, want %d", name, method, len(got.Tuples), len(want.Tuples))
			}
		}
	}
}

// TestMethodsAgreeOnGridAlignedData places every coordinate on integer
// multiples of the cell size, so edges constantly coincide with grid
// cuts — the closed-cell Split semantics and the half-open ownership
// rule must still compose into exact, duplicate-free results.
func TestMethodsAgreeOnGridAlignedData(t *testing.T) {
	rng := rand.New(rand.NewPCG(78, 9))
	part := testGrid(t, 4, 400) // cells of 100×100
	mk := func(name string, n int) Relation {
		rects := make([]geom.Rect, n)
		for i := range rects {
			rects[i] = geom.Rect{
				X: float64(rng.IntN(8)) * 50, // multiples of half a cell
				Y: float64(rng.IntN(8)) * 50,
				L: float64(rng.IntN(4)) * 50,
				B: float64(rng.IntN(4)) * 50,
			}
		}
		return NewRelation(name, rects)
	}
	for trial := 0; trial < 3; trial++ {
		rels := []Relation{mk("R1", 60), mk("R2", 60), mk("R3", 60)}
		for _, q := range []*query.Query{
			query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2),
			query.New("R1", "R2", "R3").Range(0, 1, 50).Range(1, 2, 50),
		} {
			want, err := Execute(BruteForce, q, rels, Config{Part: part})
			if err != nil {
				t.Fatal(err)
			}
			for _, method := range []Method{Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit} {
				got, err := Execute(method, q, rels, Config{Part: part})
				if err != nil {
					t.Fatalf("%v: %v", method, err)
				}
				if int64(len(got.TupleSet())) != got.Stats.OutputTuples {
					t.Errorf("trial %d %v: duplicates on grid-aligned data", trial, method)
				}
				if !reflect.DeepEqual(got.TupleSet(), want.TupleSet()) {
					t.Errorf("trial %d %v (%s): %d tuples, want %d", trial, method, q, len(got.Tuples), len(want.Tuples))
				}
			}
		}
	}
}

// TestMethodsAgreeOnDegenerateRectangles joins point and segment MBRs
// (zero length and/or breadth), which road data contains in practice.
func TestMethodsAgreeOnDegenerateRectangles(t *testing.T) {
	rng := rand.New(rand.NewPCG(79, 10))
	part := testGrid(t, 4, 500)
	mk := func(name string, n int) Relation {
		rects := make([]geom.Rect, n)
		for i := range rects {
			r := geom.Rect{X: rng.Float64() * 500, Y: rng.Float64() * 500}
			switch i % 3 {
			case 0: // point
			case 1: // horizontal segment
				r.L = rng.Float64() * 80
			case 2: // vertical segment
				r.B = rng.Float64() * 80
			}
			rects[i] = r
		}
		return NewRelation(name, rects)
	}
	rels := []Relation{mk("R1", 120), mk("R2", 120), mk("R3", 120)}
	q := query.New("R1", "R2", "R3").Range(0, 1, 30).Range(1, 2, 30)
	want, err := Execute(BruteForce, q, rels, Config{Part: part})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Tuples) == 0 {
		t.Fatal("degenerate workload produced no tuples; test is vacuous")
	}
	for _, method := range []Method{Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit} {
		got, err := Execute(method, q, rels, Config{Part: part})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if !reflect.DeepEqual(got.TupleSet(), want.TupleSet()) {
			t.Errorf("%v: %d tuples, want %d", method, len(got.Tuples), len(want.Tuples))
		}
	}
}

// TestHugeRangeParameter uses a range distance larger than the space,
// making every pair match: stresses the replication-bound and
// OtherCellWithin paths at their extremes.
func TestHugeRangeParameter(t *testing.T) {
	rng := rand.New(rand.NewPCG(80, 11))
	part := testGrid(t, 2, 200)
	rels := randomRelations(rng, 2, 25, 200, 20)
	q := query.New("R1", "R2").Range(0, 1, 10_000)
	want := int64(25 * 25)
	for _, method := range Methods() {
		got, err := Execute(method, q, rels, Config{Part: part})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if got.Stats.OutputTuples != want {
			t.Errorf("%v: %d tuples, want full cross product %d", method, got.Stats.OutputTuples, want)
		}
	}
}

// TestZeroRangeEqualsOverlapSemantics: §9 notes a hybrid query can be
// handled by replacing overlap with range distance 0; the two must
// produce identical results.
func TestZeroRangeEqualsOverlapSemantics(t *testing.T) {
	rng := rand.New(rand.NewPCG(81, 12))
	part := testGrid(t, 4, 800)
	rels := randomRelations(rng, 3, 150, 800, 60)
	ovQ := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	raQ := query.New("R1", "R2", "R3").Range(0, 1, 0).Range(1, 2, 0)
	for _, method := range []Method{ControlledReplicate, ControlledReplicateLimit} {
		ov, err := Execute(method, ovQ, rels, Config{Part: part})
		if err != nil {
			t.Fatal(err)
		}
		ra, err := Execute(method, raQ, rels, Config{Part: part})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ov.TupleSet(), ra.TupleSet()) {
			t.Errorf("%v: overlap and range-0 disagree (%d vs %d tuples)", method, len(ov.Tuples), len(ra.Tuples))
		}
	}
}
