package cluster

import (
	"math"
	"testing"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// TestClusterAllocationCeiling keeps the cluster's envelope from growing
// back: a warm cascade over 3 × 10,000 uniform rectangles through a
// coordinator and two workers that keep the relations — start, two SPMD
// runs, network shuffle, gather — may allocate at most 4.5 × what one
// spatial.Execute of the same query allocates, and at most 6 MiB. The
// ceilings were set on 30 fresh runs that read 1.27–1.41 MB in-process
// and 3.25–5.13 MB clustered, a ratio of 2.36–3.88; with a pool per
// worker, 110 fresh runs read 0.77–0.91 MB, 2.23–3.45 MB and 2.51–4.31.
// How the ceilings got here is in EXPERIMENTS.md ("Exchange payloads
// in the pool", "Workers own their pools").
func TestClusterAllocationCeiling(t *testing.T) {
	const n = 10000
	p := dataset.PaperDefaults(n)
	p.XMax, p.YMax = 10_000, 10_000 // the paper's density at this n
	direct, clustered := measureClusterAllocation(t, p, func(i int) uint64 { return uint64(2013 + 101*i) })
	if ratio := float64(clustered) / float64(direct); ratio > 4.5 {
		t.Errorf("two-worker cluster allocates %.2f × the in-process engine, ceiling 4.5", ratio)
	}
	if clustered > 6<<20 {
		t.Errorf("two-worker cluster allocates %d B, ceiling %d", clustered, 6<<20)
	}
}

// TestClusterAllocationAtBenchmarkShape holds the cluster's warm query to
// the same measure at the benchmark's cluster_w2 shape: 3 × 50,000
// uniform rectangles at the paper's density, seeded as the benchmark
// seeds them from 2013. There a round's frames and pages outgrow what
// two workers sharing one pool can keep: with one pool, 60 fresh runs
// read 22.95–24.33 MB clustered, 5.75–6.92 × in-process; with a pool
// per worker, 110 read 10.58–14.49 MB, 2.62–4.12 ×. The ceilings, 5 ×
// and 16 MiB, sit between the two.
func TestClusterAllocationAtBenchmarkShape(t *testing.T) {
	const n = 50000
	p := dataset.PaperDefaults(n)
	side := 100_000 * math.Sqrt(float64(n)/1e6)
	p.XMax, p.YMax = side, side
	direct, clustered := measureClusterAllocation(t, p, func(i int) uint64 { return uint64(2013 + 101*(i+1)) })
	if ratio := float64(clustered) / float64(direct); ratio > 5 {
		t.Errorf("two-worker cluster allocates %.2f × the in-process engine, ceiling 5", ratio)
	}
	if clustered > 16<<20 {
		t.Errorf("two-worker cluster allocates %d B, ceiling %d", clustered, 16<<20)
	}
}

// measureClusterAllocation returns what one warm cascade of R1 ov R2 and
// R2 ov R3 allocates in-process and through a coordinator and two
// workers that keep the relations, over three relations drawn from p,
// relation i with seed(i). The in-process side is measured before the
// cluster starts, on an FS private to the execution as the daemon's
// in-process path runs it, so each side recycles only its own pages.
func measureClusterAllocation(t *testing.T, p dataset.SyntheticParams, seed func(i int) uint64) (direct, clustered uint64) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	rels := make([]spatial.Relation, 3)
	for i, name := range []string{"R1", "R2", "R3"} {
		rel, err := dataset.SyntheticRelation(name, p, seed(i))
		if err != nil {
			t.Fatal(err)
		}
		rels[i] = rel
	}
	const queryText = "R1 ov R2 and R2 ov R3"
	cfg := spatial.Config{Reducers: 64, NumMappers: 8, Parallelism: 1}
	q, err := query.Parse(queryText)
	if err != nil {
		t.Fatal(err)
	}

	var tuples int
	inProcess := func() {
		res, err := spatial.Execute(spatial.Cascade, q, rels, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tuples = len(res.Tuples)
	}
	inProcess() // warm: lazy summaries, the pool
	direct = allocatedBy(inProcess)

	tc := startTestCluster(t, 2, func(_ int, wc *WorkerConfig) { wc.Logf = nil })
	onCluster := func() {
		res, err := tc.coord.Run(SpecFromConfig(spatial.Cascade, queryText, rels, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != tuples {
			t.Fatalf("cluster returned %d tuples, in-process %d", len(res.Tuples), tuples)
		}
	}
	onCluster() // warm: mesh buffers, the workers' relations and pools
	clustered = allocatedBy(onCluster)
	t.Logf("%d tuples: in-process %d B, two-worker cluster %d B, ratio %.2f", tuples, direct, clustered, float64(clustered)/float64(direct))
	if tuples == 0 {
		t.Fatal("query produced no tuples; the ceiling would be vacuous")
	}
	return direct, clustered
}
