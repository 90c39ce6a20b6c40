package cluster

import (
	"math"
	"runtime"
	"testing"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// TestClusterAllocationCeiling keeps the cluster's envelope from growing
// back: a warm cascade over 3 × 10,000 uniform rectangles through a
// coordinator and two workers that keep the relations — start, two SPMD
// runs, network shuffle, gather — may allocate at most 2.2 × what one
// spatial.Execute of the same query allocates, and at most 1.2 MB. While
// every worker carved the result into tuples, 100 fresh runs read
// 0.57–0.68 MB in-process and 1.74–2.52 MB clustered, a ratio of
// 2.58–4.42 (median 3.23); since workers hash and pack the engine's ID
// slab, 220 read 0.57–0.71 MB, 1.19–1.96 MB and 1.81–3.40 (median
// 2.25). Re-measured at PR 50, 35 fresh runs read 0.55–0.66 MB,
// 1.54–1.56 MB and 2.35–2.84 (median 2.82); since no worker keeps its
// own slab and the coordinator decodes the attachment straight into the
// slab it carves, 35 read 0.55–0.66 MB, 1.12–1.14 MB and 1.71–2.07
// (median 2.06). One of the removed copies of the 11,560-tuple result,
// 0.14 MB, coming back would read above 1.2 MB. The clustered side used
// to jump now and then to 0.85–1.33 MB, alone or beside
// TestClusterAllocationAtBenchmarkShape: the chunks the coordinator
// reads a result into came from a sync.Pool, which misses whenever the
// reading goroutine runs on another processor than the one that put the
// chunk back, and a collection inside the measured query made that
// likelier. Since those chunks are a free list and each side is
// measured right after a collection, 300 runs beside that guard under a
// concurrent load read 0.78–0.79 MB. How they got here is in
// EXPERIMENTS.md ("Exchange payloads in the pool", "Workers own their
// pools", "One ID slab from reducer to coordinator", "A clustered
// result is built once", "A served result stays the engine's ID
// slab").
func TestClusterAllocationCeiling(t *testing.T) {
	const n = 10000
	p := dataset.PaperDefaults(n)
	p.XMax, p.YMax = 10_000, 10_000 // the paper's density at this n
	direct, clustered := measureClusterAllocation(t, syntheticRelations(t, p, func(i int) uint64 { return uint64(2013 + 101*i) }))
	if ratio := float64(clustered) / float64(direct); ratio > 2.2 {
		t.Errorf("two-worker cluster allocates %.2f × the in-process engine, ceiling 2.2", ratio)
	}
	if clustered > 1_200_000 {
		t.Errorf("two-worker cluster allocates %d B, ceiling %d", clustered, 1_200_000)
	}
}

// TestClusterAllocationAtBenchmarkShape holds the cluster's warm query to
// the same measure at the benchmark's cluster_w2 shape: 3 × 50,000
// uniform rectangles at the paper's density, seeded as the benchmark
// seeds them from 2013. While every worker carved the result into
// tuples, 30 fresh runs read 2.56–3.09 MB in-process and 7.99–8.29 MB
// clustered, 2.60–3.23 ×; since workers hash and pack the engine's ID
// slab, 170 read 2.56–3.09 MB, 5.12–5.53 MB and 1.65–2.13 ×. Re-measured
// at PR 50, 35 fresh runs read 2.47–3.50 MB, 4.91–5.18 MB and
// 1.44–2.05 ×; since no worker keeps its own slab and the coordinator
// decodes the attachment straight into the slab it carves, 35 read
// 2.47–3.50 MB, 2.75–2.89 MB and 0.83–1.17 ×. The ceilings, 1.3 × and
// 3.3 MB, sit between the two, and one of the removed copies of the
// 59,448-tuple result (0.71 MB) coming back would read above 3.3 MB.
func TestClusterAllocationAtBenchmarkShape(t *testing.T) {
	direct, clustered := measureClusterAllocation(t, benchmarkShapeRelations(t))
	if ratio := float64(clustered) / float64(direct); ratio > 1.3 {
		t.Errorf("two-worker cluster allocates %.2f × the in-process engine, ceiling 1.3", ratio)
	}
	if clustered > 3_300_000 {
		t.Errorf("two-worker cluster allocates %d B, ceiling %d", clustered, 3_300_000)
	}
}

// syntheticRelations draws the three relations R1, R2 and R3 from p,
// relation i with seed(i).
func syntheticRelations(t *testing.T, p dataset.SyntheticParams, seed func(i int) uint64) []spatial.Relation {
	t.Helper()
	rels := make([]spatial.Relation, 3)
	for i, name := range []string{"R1", "R2", "R3"} {
		rel, err := dataset.SyntheticRelation(name, p, seed(i))
		if err != nil {
			t.Fatal(err)
		}
		rels[i] = rel
	}
	return rels
}

// benchmarkShapeRelations are cluster_w2's relations: 3 × 50,000
// uniform rectangles at the paper's density, seeded as the benchmark
// seeds them from 2013.
func benchmarkShapeRelations(t *testing.T) []spatial.Relation {
	const n = 50000
	p := dataset.PaperDefaults(n)
	side := 100_000 * math.Sqrt(float64(n)/1e6)
	p.XMax, p.YMax = side, side
	return syntheticRelations(t, p, func(i int) uint64 { return uint64(2013 + 101*(i+1)) })
}

// clusterQuery and clusterConfig are the query and config the cluster's
// guards run at the benchmark's cluster_w2 shape.
const clusterQuery = "R1 ov R2 and R2 ov R3"

var clusterConfig = spatial.Config{Reducers: 64, NumMappers: 8, Parallelism: 1}

// measureClusterAllocation returns what one warm cascade of clusterQuery
// over rels allocates in-process and through a coordinator and two
// workers that keep the relations. The in-process side is measured
// before the cluster starts, on an FS private to the execution as the
// daemon's in-process path runs it, so each side recycles only its own
// pages. Each side is measured right after a collection: whatever a
// test before this one left on the heap cannot then bring a collection
// into the measured query.
func measureClusterAllocation(t *testing.T, rels []spatial.Relation) (direct, clustered uint64) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	q, err := query.Parse(clusterQuery)
	if err != nil {
		t.Fatal(err)
	}

	var tuples int
	inProcess := func() {
		res, err := spatial.Execute(spatial.Cascade, q, rels, clusterConfig)
		if err != nil {
			t.Fatal(err)
		}
		tuples = len(res.Tuples)
	}
	inProcess() // warm: lazy summaries, the pool
	runtime.GC()
	direct = allocatedBy(inProcess)

	tc := startTestCluster(t, 2, func(_ int, wc *WorkerConfig) { wc.Logf = nil })
	onCluster := func() {
		res, err := tc.coord.Run(SpecFromConfig(spatial.Cascade, clusterQuery, rels, clusterConfig))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != tuples {
			t.Fatalf("cluster returned %d tuples, in-process %d", len(res.Tuples), tuples)
		}
	}
	onCluster() // warm: mesh buffers, the workers' relations and pools
	runtime.GC()
	clustered = allocatedBy(onCluster)
	t.Logf("%d tuples: in-process %d B, two-worker cluster %d B, ratio %.2f", tuples, direct, clustered, float64(clustered)/float64(direct))
	if tuples == 0 {
		t.Fatal("query produced no tuples; the ceiling would be vacuous")
	}
	return direct, clustered
}

// TestClusterShipsBoundaryPairsAtBenchmarkShape holds what a two-worker
// cascade ships between its workers at the benchmark's cluster_w2 shape
// to the pairs that cross a worker boundary: before the map, every
// worker cuts the grid's columns into one block a worker, balanced by
// the records each holds, and places each cell on the worker of its
// column; a mapper's split is a range of its worker's columns of every
// input side — the relations are staged in MinX order, and a cascade
// checkpoint's records are placed by the cells that emitted them — so
// only the rectangles crossing the one boundary between the workers'
// columns travel. The result must be the one worker's: the roster hash
// and tuple count of a one-worker cluster. The ceilings are the figures
// measured when splits first followed the grid plus a margin of a tenth
// (Cascade 20,484 B, C-Rep 2,467,988 B, C-Rep-L 28,516 B). Placed from
// the grid, before the map, C-Rep ships 2,474,536 B: the map report's
// byte-weighted placement had put column 4's lower four cells, where
// C-Rep's replication to the lower right lands most copies from the
// left, on the first worker. With x-strip count splits dealt m mod W the
// three shipped 1,075,101 B, 4,909,980 B and 2,465,910 B, and with
// reducers dealt r mod W as well 4,984,566 B, 4,911,218 B and 2,467,025
// B.
func TestClusterShipsBoundaryPairsAtBenchmarkShape(t *testing.T) {
	checkShippedAtBenchmarkShape(t, 2, []shipCeiling{
		{spatial.Cascade, 22_500},
		{spatial.ControlledReplicate, 2_715_000},
		{spatial.ControlledReplicateLimit, 31_400},
	})
}

// TestThreeWorkersShipBoundaryPairsAtBenchmarkShape is
// TestClusterShipsBoundaryPairsAtBenchmarkShape on three workers. The
// grid's eight columns fall to them three, two and three, so only the
// pairs crossing the two boundaries travel (Cascade 45,808 B, C-Rep
// 3,240,799 B, C-Rep-L 63,358 B). The Cascade and C-Rep-L ceilings are
// three times their two-worker figures; C-Rep's is the figure measured
// when splits first followed the grid plus a tenth (3,305,553 B). Placed
// from the map reports' weights, the balance bound moved whole cells
// between workers, and Cascade shipped 554,699 B and C-Rep-L 472,868 B.
func TestThreeWorkersShipBoundaryPairsAtBenchmarkShape(t *testing.T) {
	checkShippedAtBenchmarkShape(t, 3, []shipCeiling{
		{spatial.Cascade, 61_452},
		{spatial.ControlledReplicate, 3_636_000},
		{spatial.ControlledReplicateLimit, 85_548},
	})
}

// shipCeiling is the most a method may ship between workers in one query.
type shipCeiling struct {
	method  spatial.Method
	ceiling int64
}

// checkShippedAtBenchmarkShape runs each method of cases at the
// benchmark's cluster_w2 shape on a cluster of w workers and holds Σ
// rounds ShuffleNetworkBytes to the method's ceiling and the cascade's
// result to a one-worker cluster's hash and count.
func checkShippedAtBenchmarkShape(t *testing.T, w int, cases []shipCeiling) {
	rels := benchmarkShapeRelations(t)
	one := startTestCluster(t, 1, func(_ int, wc *WorkerConfig) { wc.Logf = nil })
	want, err := one.coord.Run(SpecFromConfig(spatial.Cascade, clusterQuery, rels, clusterConfig))
	if err != nil {
		t.Fatal(err)
	}
	cluster := startTestCluster(t, w, func(_ int, wc *WorkerConfig) { wc.Logf = nil })
	for _, c := range cases {
		res, err := cluster.coord.Run(SpecFromConfig(c.method, clusterQuery, rels, clusterConfig))
		if err != nil {
			t.Fatal(err)
		}
		if res.Workers != w {
			t.Fatalf("%v ran on %d workers, want %d", c.method, res.Workers, w)
		}
		var n int64
		rounds := make([]int64, len(res.Stats.Rounds))
		for i, r := range res.Stats.Rounds {
			rounds[i] = r.ShuffleNetworkBytes
			n += r.ShuffleNetworkBytes
		}
		t.Logf("%v: %d tuples, %d B shipped, by round %v", c.method, len(res.Tuples), n, rounds)
		if n > c.ceiling {
			t.Errorf("%v: the %d workers shipped %d B, ceiling %d", c.method, w, n, c.ceiling)
		}
		if c.method == spatial.Cascade && (res.Hash != want.Hash || len(res.Tuples) != len(want.Tuples)) {
			t.Errorf("%d workers: hash %s over %d tuples; one worker: %s over %d", w, res.Hash, len(res.Tuples), want.Hash, len(want.Tuples))
		}
	}
}
