package cluster

import (
	"testing"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/dfs"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// TestClusterAllocationCeiling keeps the cluster's envelope from growing
// back: a cascade over 3 × 10,000 uniform rectangles through a
// coordinator and two workers — pack, ship, two SPMD runs, network
// shuffle, gather — may allocate at most 2.75 × what one spatial.Execute
// of the same query allocates. Measured here: 2.00 ×; with relations and
// tuples as base64 inside JSON lines it was 3.06 × (3.4 × at 3 × 50,000).
func TestClusterAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	const n = 10000
	p := dataset.PaperDefaults(n)
	p.XMax, p.YMax = 10_000, 10_000 // the paper's density at this n
	rels := make([]spatial.Relation, 3)
	for i, name := range []string{"R1", "R2", "R3"} {
		rel, err := dataset.SyntheticRelation(name, p, uint64(2013+101*i))
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
	tc := startTestCluster(t, 2, func(_ int, wc *WorkerConfig) { wc.Logf = nil })

	var tuples int
	inProcess := func() {
		c := cfg
		c.FS = dfs.New(0)
		res, err := spatial.Execute(spatial.Cascade, q, rels, c)
		if err != nil {
			t.Fatal(err)
		}
		tuples = len(res.Tuples)
	}
	onCluster := func() {
		res, err := tc.coord.Run(SpecFromConfig(spatial.Cascade, queryText, rels, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != tuples {
			t.Fatalf("cluster returned %d tuples, in-process %d", len(res.Tuples), tuples)
		}
	}
	inProcess() // warm both paths: lazy summaries, pools, mesh buffers
	onCluster()
	direct, clustered := allocatedBy(inProcess), allocatedBy(onCluster)
	ratio := float64(clustered) / float64(direct)
	t.Logf("%d tuples: in-process %d B, two-worker cluster %d B, ratio %.2f", tuples, direct, clustered, ratio)
	if tuples == 0 {
		t.Fatal("query produced no tuples; the ceiling would be vacuous")
	}
	if ratio > 2.75 {
		t.Errorf("two-worker cluster allocates %.2f × the in-process engine, ceiling 2.75", ratio)
	}
}
