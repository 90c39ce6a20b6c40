package spatial

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/query"
)

// freshSharedPool gives the test an empty process pool and restores the
// old one after it, so what earlier tests left in the pool cannot decide
// what this one measures.
func freshSharedPool(t *testing.T) {
	old := sharedPool
	sharedPool = mapreduce.NewBufferPool()
	t.Cleanup(func() { sharedPool = old })
}

// sortedKeys returns res's tuples as sorted keys, the form
// referenceTuples returns.
func sortedKeys(res *Result) []string {
	keys := make([]string, len(res.Tuples))
	for i, tu := range res.Tuples {
		keys[i] = tu.Key()
	}
	slices.Sort(keys)
	return keys
}

// fileHashes reads every file of fs and hashes its records.
func fileHashes(t *testing.T, fs *dfs.FS) map[string][sha256.Size]byte {
	t.Helper()
	out := map[string][sha256.Size]byte{}
	for _, name := range fs.List() {
		h := sha256.New()
		err := fs.Scan(name, func(rec []byte) error {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(rec))))
			h.Write(rec)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = [sha256.Size]byte(h.Sum(nil))
	}
	return out
}

// TestCallerFSCheckpointsSurviveLaterQueries: on a caller's FS the
// cascade's checkpoint files are views into its output stores' pages,
// so those pages must never go back to the shared pool. Ten later
// queries of other shapes, on private FSs whose pages do go back and are
// handed out again, must leave every file of the caller's FS
// byte-identical.
func TestCallerFSCheckpointsSurviveLaterQueries(t *testing.T) {
	freshSharedPool(t)
	rng := rand.New(rand.NewPCG(2013, 32))
	rels := randomRelations(rng, 4, 300, 1000, 70)
	fs := dfs.New(0)
	chain := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	if _, err := Execute(Cascade, chain, rels[:3], Config{Reducers: 16, NumMappers: 4, FS: fs}); err != nil {
		t.Fatal(err)
	}
	before := fileHashes(t, fs)

	others := []struct {
		m Method
		q *query.Query
		n int // relations bound
	}{
		{Cascade, query.New("R1", "R2").Overlap(0, 1), 2},
		{Cascade, query.New("R1", "R2", "R3").Range(0, 1, 20).Overlap(1, 2), 3},
		{Cascade, query.New("R1", "R2", "R3", "R4").Overlap(0, 1).Overlap(1, 2).Overlap(2, 3), 4},
		{Cascade, query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(0, 2), 3},
		{AllReplicate, chain, 3},
		{ControlledReplicate, query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 30), 3},
		{ControlledReplicateLimit, chain, 3},
		{Cascade, query.New("R1", "R2", "R3", "R4").Range(0, 1, 10).Overlap(1, 2).Overlap(1, 3), 4},
		{Cascade, chain, 3},
		{Cascade, query.New("R1", "R2").Range(0, 1, 40), 2},
	}
	for i, o := range others {
		if _, err := Execute(o.m, o.q, rels[:o.n], Config{Reducers: []int{9, 16, 25}[i%3], NumMappers: 3}); err != nil {
			t.Fatalf("query %d (%v %s): %v", i, o.m, o.q, err)
		}
	}
	if sharedPool.Retained() == 0 {
		t.Fatal("the later queries returned nothing to the pool; the check is vacuous")
	}
	after := fileHashes(t, fs)
	if len(after) != len(before) {
		t.Fatalf("the caller's FS holds %d files, had %d", len(after), len(before))
	}
	for name, h := range before {
		if after[name] != h {
			t.Errorf("%s changed after later queries reused the pool", name)
		}
	}
}

// TestSharedPoolConcurrentExecutions runs executions that share the
// process pool at once — every map-reduce method, with and without
// injected reduce failures, beside a two-worker run over
// distHub — twice over, so the second wave draws on what the first
// returned. Each must return referenceTuples; under -race this is the
// pool's sharing check. The pool ends within its cap.
func TestSharedPoolConcurrentExecutions(t *testing.T) {
	freshSharedPool(t)
	rng := rand.New(rand.NewPCG(2013, 33))
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 30)
	rels := randomRelations(rng, 3, 150, 1000, 50)
	want := referenceTuples(q, rels, false)
	if len(want) == 0 {
		t.Fatal("the query has no tuples; the check is vacuous")
	}
	type run struct {
		m   Method
		cfg Config
	}
	var runs []run
	for _, m := range distMethods() {
		for _, fail := range []bool{false, true} {
			cfg := Config{Reducers: 16, NumMappers: 3, Parallelism: 2}
			if fail {
				cfg.MaxAttempts = 2
				cfg.FailReduce = func(r, attempt int) bool { return attempt == 1 && r%3 == 0 }
			}
			runs = append(runs, run{m, cfg})
		}
	}
	for wave := 0; wave < 2; wave++ {
		var wg sync.WaitGroup
		for _, r := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := Execute(r.m, q, rels, r.cfg)
				if err != nil {
					t.Errorf("wave %d %v: %v", wave, r.m, err)
				} else if got := sortedKeys(res); !slices.Equal(got, want) {
					t.Errorf("wave %d %v fail=%v: %d tuples, reference %d", wave, r.m, r.cfg.FailReduce != nil, len(got), len(want))
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, errs := executeDistributed(t, 2, Cascade, q, rels, Config{Reducers: 16, NumMappers: 4, Parallelism: 2})
			for self, err := range errs {
				if err != nil {
					t.Errorf("wave %d W=2 worker %d: %v", wave, self, err)
				} else if got := sortedKeys(results[self]); !slices.Equal(got, want) {
					t.Errorf("wave %d W=2 worker %d: %d tuples, reference %d", wave, self, len(got), len(want))
				}
			}
		}()
		wg.Wait()
	}
	if got := sharedPool.Retained(); got > mapreduce.MaxPoolBytes {
		t.Errorf("the pool retains %d bytes, cap %d", got, mapreduce.MaxPoolBytes)
	}
}

// TestExecuteWarmAllocation is the steady-state budget of the process
// pool: on an empty pool, a cascade_uniform-shaped query (the benchmark
// workload's query, config and rectangle density at unit 5,000)
// allocates its whole working set; the same query again draws its
// partial stores' pages, reducer-input buffers, map chunks and output
// chunks from what the first returned, and may allocate at most a
// quarter of the first's bytes. Measured: 4.6 MB cold, 0.69 MB warm
// (4.4 and 0.83 MB before reducer outputs were pooled runs). The pool
// ends within its cap.
func TestExecuteWarmAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory allocates")
	}
	rng := rand.New(rand.NewPCG(2013, 5000))
	rels := randomRelations(rng, 3, 5000, 7071, 100)
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	cfg := Config{Reducers: 64, Parallelism: 2, NumMappers: 8}
	// A first run, before the pool is emptied, makes what lives with the
	// relations (summaries, staged rows) and warms the kernels' own pools.
	if _, err := Execute(Cascade, q, rels, cfg); err != nil {
		t.Fatal(err)
	}
	freshSharedPool(t)
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Execute(Cascade, q, rels, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cold, warm := allocated(), allocated()
	t.Logf("cold %d B, warm %d B, pool retains %d B", cold, warm, sharedPool.Retained())
	if warm > cold/4 {
		t.Errorf("the warm query allocated %d B, budget a quarter of the cold query's %d B", warm, cold)
	}
	if got := sharedPool.Retained(); got > mapreduce.MaxPoolBytes {
		t.Errorf("the pool retains %d bytes, cap %d", got, mapreduce.MaxPoolBytes)
	}
}
