package spatial_test

import (
	"runtime"
	"testing"

	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// creplWarmBytesBudget pins what one warm crepl_zipf-shaped query
// allocates. On the commit that made a map run stay in its pooled
// chunks until the shuffle copies it, the query below allocated
// 0.39–0.61 MB (about 2,550 mallocs) in 25 runs on a 2-core host, and
// 0.73 MB once; the budget keeps 70 % headroom over 0.6 MB, the
// convention of TestCascadeAllocationBudget.
const creplWarmBytesBudget = 1_000_000

// TestCRepLAllocationBudget holds C-Rep-L's data path — mark round,
// replication and a pair-heavy shuffle on skewed data — to its
// allocation on one crepl_zipf-shaped query (the benchmark workload's
// query and config on a 9,000-rectangle Zipf-clustered draw), run a
// second time on a pool the first filled.
func TestCRepLAllocationBudget(t *testing.T) {
	if spatial.RaceEnabled {
		t.Skip("the race detector's shadow memory allocates")
	}
	spatial.FreshSharedPool(t)
	rels := goldenZipf(t, []string{"R1", "R2", "R3"}, 9000, 2013)
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 5)
	cfg := spatial.Config{Scheme: spatial.PartitionAdaptive, Reducers: 64, Parallelism: 2, NumMappers: 8}
	run := func() {
		if _, err := spatial.Execute(spatial.ControlledReplicateLimit, q, rels, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up the relations' summaries, the grid and the pool
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("mallocs %d, bytes %d (budget %d)", mallocs, bytes, creplWarmBytesBudget)
	if bytes > creplWarmBytesBudget {
		t.Errorf("%d bytes allocated, budget %d", bytes, creplWarmBytesBudget)
	}
}
