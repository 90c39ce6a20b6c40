package spatial_test

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// creplWarmBytesBudget pins what one warm crepl_zipf-shaped query
// allocates. On the commit that made a map run stay in its pooled
// chunks until the shuffle copies it, the query below allocated
// 0.39–0.61 MB (about 2,550 mallocs) in 25 runs on a 2-core host, and
// 0.73 MB once, under a 1 MB budget. Since reducer outputs grow in
// pooled chunks too and the job's output is one copy at its exact size,
// it allocated 0.25–0.43 MB (about 2,510 mallocs) in 57 runs, and
// 0.48 and 0.54 MB once each, under a 765,000-byte budget. Since the
// reducers' scratch, the marked set and the map tasks' runs are working
// sets of the pool, sized once, it allocates 54.8–74.6 KB (about 660
// mallocs) in 60 runs alone; in 100 runs beside the other allocation
// guards, as the gate runs it, 55–75 KB but for 323 and 330 KB twice,
// where the warm-up query happened to hold one working set at a time
// and the measured query drew a second. The budget keeps 70 % headroom
// over 330 KB, the convention of TestCascadeAllocationBudget.
const creplWarmBytesBudget = 561_000

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

// creplShapeScratchBudget pins what one warm crepl_zipf query allocates
// beyond its answer. While the reducers' scratch lived in sync.Pools,
// which the collection before the measured query empties, and C-Rep's
// marked set was a map built per query, it allocated 1.33–6.04 MB beyond
// the answer in 20 runs; with them working sets of the pool, sized
// once, 0.224–0.299 MB in 40. The budget keeps 70 % headroom over
// 0.299 MB.
const creplShapeScratchBudget = 510_000

// TestCRepLAllocationAtBenchmarkShape holds one warm in-process C-Rep-L
// query at the benchmark's crepl_zipf shape — 3 × 30,000 Zipf-clustered
// rectangles drawn as the benchmark draws them from 2013, its query and
// its config — to creplShapeScratchBudget beyond the answer: the ID slab
// and the []Tuple carve, (4·3 + 24) bytes a tuple. The measured query
// follows a collection, as every query of the benchmark does, so scratch
// that a collection empties is charged to it.
func TestCRepLAllocationAtBenchmarkShape(t *testing.T) {
	if spatial.RaceEnabled {
		t.Skip("the race detector's shadow memory allocates")
	}
	spatial.FreshSharedPool(t)
	rels := goldenZipf(t, []string{"R1", "R2", "R3"}, 90000, 2013)
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 5)
	cfg := spatial.Config{Scheme: spatial.PartitionAdaptive, Reducers: 64, Parallelism: 2, NumMappers: 8}
	var tuples int
	run := func() {
		res, err := spatial.Execute(spatial.ControlledReplicateLimit, q, rels, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tuples = len(res.Tuples)
	}
	run() // warm up the relations' summaries, the grid and the pool
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	answer := uint64(tuples) * (4*3 + 24)
	scratch := after.TotalAlloc - before.TotalAlloc - answer
	t.Logf("%d tuples: %d bytes, %d beyond the answer (budget %d)", tuples, after.TotalAlloc-before.TotalAlloc, scratch, creplShapeScratchBudget)
	if tuples == 0 {
		t.Fatal("query produced no tuples; the budget would be vacuous")
	}
	if scratch > creplShapeScratchBudget {
		t.Errorf("%d bytes allocated beyond the answer, budget %d", scratch, creplShapeScratchBudget)
	}
}

// allRepPairBudget bounds a warm All-Replicate query at
// TestAllReplicateAllocationAtUnitShape's shape, in bytes per pair its
// join round shuffles. While a pair's 48-byte value was in a map chunk
// and again in a reducer-input slab of the whole job, both past what
// the pool keeps, 82.6–82.9 bytes a pair were measured, and 445 while
// every working set was grown to the hottest cell's. Since each reducer
// gathers its own input into a buffer the pool keeps for the next, 34.9.
// The budget, unchanged, kept a third of headroom over 82.9.
const allRepPairBudget = 110

// TestAllReplicateAllocationAtUnitShape holds one warm All-Replicate
// query to allRepPairBudget bytes per shuffled pair: 3 × 30,000 of the
// paper's synthetic rectangles at its density, an overlap chain, 64
// cells. Its hottest cell holds every rectangle, 90,000, and a working
// set that held a strip layout of the cell for every edge end, 321
// bytes an item, was past MaxPoolBytes: grown to it on its way back to
// the pool and dropped there, every set cost the hottest cell's bytes.
func TestAllReplicateAllocationAtUnitShape(t *testing.T) {
	if spatial.RaceEnabled {
		t.Skip("the race detector's shadow memory allocates")
	}
	spatial.FreshSharedPool(t)
	q, rels, cfg := allRepUnitShape(t)
	var pairs int64
	run := func() {
		res, err := spatial.Execute(spatial.AllReplicate, q, rels, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pairs = res.Stats.IntermediatePairs()
	}
	run() // warm up the relations' summaries, the grid and the pool
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d pairs: %d bytes, %.1f a pair (budget %d)", pairs, grew, float64(grew)/float64(pairs), allRepPairBudget)
	if grew > uint64(pairs)*allRepPairBudget {
		t.Errorf("%d bytes allocated for %d pairs, budget %d a pair", grew, pairs, allRepPairBudget)
	}
}

// allRepUnitShape is TestAllReplicateAllocationAtUnitShape's query: 3 ×
// 30,000 of the paper's synthetic rectangles at its density, an overlap
// chain, 64 cells, counted only.
func allRepUnitShape(t *testing.T) (*query.Query, []spatial.Relation, spatial.Config) {
	t.Helper()
	const n = 30_000
	rels := make([]spatial.Relation, 3)
	for i := range rels {
		p := dataset.PaperDefaults(n)
		p.XMax = 100_000 * math.Sqrt(n/1e6)
		p.YMax = p.XMax
		rel, err := dataset.SyntheticRelation(fmt.Sprintf("R%d", i+1), p, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		rels[i] = rel
	}
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	return q, rels, spatial.Config{Reducers: 64, Parallelism: 2, CountOnly: true}
}

// allRepPeakPairBudget bounds how far one All-Replicate query at
// allRepUnitShape raises its process's peak RSS, in bytes per pair its
// join round shuffles. A pair's value is 48 bytes. While the shuffle
// copied every pair of the job into one slab before the map's chunks
// went back, three runs on a 2-core host rose 140.4 bytes a pair; with
// each reducer gathering its own input, 63.3–63.4. The budget sits
// between the two.
const allRepPeakPairBudget = 100

// peakChildEnv marks the process TestAllReplicatePeakHoldsEachPairOnce
// starts to run its query in.
const peakChildEnv = "MWSJ_PEAK_CHILD"

// TestAllReplicatePeakHoldsEachPairOnce runs one All-Replicate query at
// allRepUnitShape in a fresh process — this test binary again — and
// holds the rise of the process's peak RSS (VmHWM) over the query to
// allRepPeakPairBudget bytes a shuffled pair: a job that holds its pairs
// in the map's chunks and again in a reducer-input slab of the whole job
// peaks at twice a job that gathers each reducer's input as it reduces.
func TestAllReplicatePeakHoldsEachPairOnce(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads VmHWM from /proc/self/status")
	}
	if spatial.RaceEnabled {
		t.Skip("the race detector's shadow memory allocates")
	}
	if os.Getenv(peakChildEnv) != "" {
		q, rels, cfg := allRepUnitShape(t)
		before := vmHWM(t)
		res, err := spatial.Execute(spatial.AllReplicate, q, rels, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("peak %d %d %d\n", before, vmHWM(t), res.Stats.IntermediatePairs())
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), peakChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v: %s", err, out)
	}
	var before, after, pairs int64
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "peak ") {
			fmt.Sscanf(line, "peak %d %d %d", &before, &after, &pairs)
		}
	}
	if pairs == 0 {
		t.Fatalf("the query process reported no pairs: %s", out)
	}
	rise := after - before
	t.Logf("%d pairs: VmHWM %d → %d bytes, %.1f a pair (budget %d)", pairs, before, after, float64(rise)/float64(pairs), allRepPeakPairBudget)
	if rise > pairs*allRepPeakPairBudget {
		t.Errorf("peak RSS rose %d bytes for %d pairs, budget %d a pair", rise, pairs, allRepPeakPairBudget)
	}
}

// vmHWM is the process's peak resident set, in bytes.
func vmHWM(t *testing.T) int64 {
	t.Helper()
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n << 10
		}
	}
	t.Fatal("no VmHWM line in /proc/self/status")
	return 0
}

// creplRetainedBudget bounds what the pool holds after one
// crepl_zipf-shaped query. While reducers ran in index order it held
// 14.22–14.29 MB in three runs, most of it about 25 working sets kept
// for each new largest cell; with the largest cells first, 9.00–9.05 MB.
// The budget sits between the two.
const creplRetainedBudget = 11_500_000

// TestCRepLRetainedAtBenchmarkShape holds what a fresh process pool
// retains after one C-Rep-L query at TestCRepLAllocationAtBenchmarkShape's
// shape to creplRetainedBudget: the reducers run largest first, so the
// working sets the first, largest cells grow serve every later cell, and
// the pool keeps no set for each new largest cell along the way.
func TestCRepLRetainedAtBenchmarkShape(t *testing.T) {
	spatial.FreshSharedPool(t)
	rels := goldenZipf(t, []string{"R1", "R2", "R3"}, 90000, 2013)
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 5)
	cfg := spatial.Config{Scheme: spatial.PartitionAdaptive, Reducers: 64, Parallelism: 2, NumMappers: 8}
	if _, err := spatial.Execute(spatial.ControlledReplicateLimit, q, rels, cfg); err != nil {
		t.Fatal(err)
	}
	got := spatial.SharedPoolRetained()
	t.Logf("the pool retains %d bytes (budget %d)", got, creplRetainedBudget)
	if got > creplRetainedBudget {
		t.Errorf("the pool retains %d bytes after one query, budget %d", got, creplRetainedBudget)
	}
}
