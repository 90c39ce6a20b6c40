package spatial_test

import (
	"runtime"
	"testing"

	"mwsjoin/internal/spatial"
)

// The parent commit (0c03bd6) allocated this much per PlanQuery on
// served_mix's uniform shape, warm or cold — it kept nothing between
// calls — measured by BenchmarkPlanQuery on that commit.
const parentPlanBytes = 70_600_000

// TestPlanQueryAllocationCeiling holds the planner to its allocation
// claim on both served_mix shapes: a plan over relations an earlier
// query planned on allocates at most 1 MB, a first plan over fresh
// relations — summaries, samples and the one configured grid — at most
// 880 kB, 1.25 × the 711,112 bytes it measures (3.5–3.7 MB when the
// planner built six grids).
func TestPlanQueryAllocationCeiling(t *testing.T) {
	if spatial.RaceEnabled {
		t.Skip("the race detector's shadow memory allocates")
	}
	for shape, rels := range servedShapes(t) {
		measure := func(k int, rels []spatial.Relation) uint64 {
			q := servedMiss(k)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := spatial.PlanQuery(q, rels, spatial.Config{}, spatial.PlannerOptions{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		cold := measure(0, fresh(rels))
		measure(1, rels)
		warm := measure(2, rels)
		t.Logf("%s: cold %d bytes, warm %d bytes (parent %d either way)", shape, cold, warm, parentPlanBytes)
		if cold > 880_000 {
			t.Errorf("%s: a cold plan allocated %d bytes, ceiling is 880 kB", shape, cold)
		}
		if warm > 1<<20 {
			t.Errorf("%s: a warm plan allocated %d bytes, ceiling is 1 MB", shape, warm)
		}
	}
}
