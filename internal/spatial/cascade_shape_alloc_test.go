package spatial_test

import (
	"math"
	"runtime"
	"testing"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// cascadeShapeBudget pins what one warm cascade_uniform-shaped query
// allocates in-process. While every cascade reducer emitted one
// reference per record and the job's output was their exact-size copy,
// 30 fresh runs read 3.51–4.05 MB; with reducers emitting their pages'
// segments, 2.56–3.10 MB. The budget sits between the two. With the
// reducers' scratch and the map tasks' runs working sets of the pool,
// which keeps them through the collection now made before the measured
// query, 30 runs read 2.30–2.31 MB.
const cascadeShapeBudget = 3_300_000

// benchmarkShape is the benchmark's cascade_uniform shape: 3 × 50,000
// uniform rectangles at the paper's density, seeded as the benchmark
// seeds them from 2013, its query and its config (one worker thread).
func benchmarkShape(t *testing.T) (*query.Query, []spatial.Relation, spatial.Config) {
	t.Helper()
	const n = 50000
	p := dataset.PaperDefaults(n)
	side := 100_000 * math.Sqrt(float64(n)/1e6)
	p.XMax, p.YMax = side, side
	rels := make([]spatial.Relation, 3)
	for i, name := range []string{"R1", "R2", "R3"} {
		rel, err := dataset.SyntheticRelation(name, p, uint64(2013+101*(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		rels[i] = rel
	}
	q, err := query.Parse("R1 ov R2 and R2 ov R3")
	if err != nil {
		t.Fatal(err)
	}
	return q, rels, spatial.Config{Reducers: 64, NumMappers: 8, Parallelism: 1}
}

// TestCascadeAllocationAtBenchmarkShape holds one warm in-process
// cascade, after one warm-up on a fresh pool, to cascadeShapeBudget at
// the benchmark's cascade_uniform shape: 3 × 50,000 uniform rectangles
// at the paper's density, seeded as the benchmark seeds them from 2013,
// under its query and config. It is TestClusterAllocationAtBenchmarkShape's
// in-process side (internal/cluster), measured alone.
func TestCascadeAllocationAtBenchmarkShape(t *testing.T) {
	if spatial.RaceEnabled {
		t.Skip("the race detector's shadow memory allocates")
	}
	spatial.FreshSharedPool(t)
	q, rels, cfg := benchmarkShape(t)
	var tuples int
	run := func() {
		res, err := spatial.Execute(spatial.Cascade, q, rels, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tuples = len(res.Tuples)
	}
	run() // warm up the relations' summaries, the grid and the pool
	// A collection first, as the benchmark collects before every query:
	// the reducers' scratch lives in the pool, which keeps it through one.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d tuples: %d bytes (budget %d)", tuples, bytes, cascadeShapeBudget)
	if tuples == 0 {
		t.Fatal("query produced no tuples; the budget would be vacuous")
	}
	if bytes > cascadeShapeBudget {
		t.Errorf("%d bytes allocated, budget %d", bytes, cascadeShapeBudget)
	}
}
