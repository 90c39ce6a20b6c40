package spatial

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"mwsjoin/internal/query"
)

// Commit a2b8e1b, before the flat partials, spent this much on the
// query below, measured by this test's own loop on that commit.
const (
	parentCascadeMallocs    = 103_800
	parentCascadeTotalAlloc = 28_950_000
)

// warmBytesBudget pins what one warm query allocates. The query below
// allocated 8.14 MB (8,119 mallocs) on commit 22365f4, whose mappers
// stored a key beside every value and whose shuffle merged the runs
// through a tree of pair buffers; 6.55 MB (2,770 mallocs) once a run
// became a chunk list of values and the shuffle a concatenation, under
// a 7.2 MB budget between the two; and 4.57 MB once staging stopped
// copying the relations. Since the process shares one buffer pool and
// the partial stores take their pages from it, a second query reuses
// the map chunks, reducer-input slabs and pages the first returned:
// 0.88 MB (1,370 mallocs), under a 1.5 MB budget. Since the reducers'
// outputs grow in pooled chunks and each job's output is one copy at
// its exact size, it allocates 0.69 MB (1,330 mallocs; 0.79 MB once in
// 25 runs), what is left being the checkpoint record tables, the jobs'
// outputs and the result tuples, each allocated once, under a 1.2 MB
// budget. Since a checkpoint is its reducers' pages — the chain takes
// over runs of consecutive records in the output store's pages, not a
// slice header per record — the record tables are gone: 0.43 MB
// (1,340 mallocs), the jobs' outputs and the result tuples. The budget
// keeps 70 % headroom over 0.44 MB.
const warmBytesBudget = 750_000

// TestCascadeAllocationBudget holds the cascade's data path to its
// allocation claims on one cascade_uniform-shaped query (the benchmark
// workload's query, config and rectangle density at unit 5,000), run a
// second time on a pool the first filled: at most 15 % of a2b8e1b's
// mallocs, and no more bytes than warmBytesBudget.
func TestCascadeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory allocates")
	}
	freshSharedPool(t)
	rng := rand.New(rand.NewPCG(2013, 5000))
	rels := randomRelations(rng, 3, 5000, 7071, 100)
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	cfg := Config{Reducers: 64, Parallelism: 2, NumMappers: 8}
	run := func() {
		if _, err := Execute(Cascade, q, rels, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up lazily initialised state and the pool
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("mallocs %d (a2b8e1b %d), bytes %d (a2b8e1b %d, budget %d)", mallocs, parentCascadeMallocs, bytes, parentCascadeTotalAlloc, warmBytesBudget)
	if mallocs > parentCascadeMallocs*15/100 {
		t.Errorf("%d mallocs, budget is 15%% of a2b8e1b's %d", mallocs, parentCascadeMallocs)
	}
	if bytes > warmBytesBudget {
		t.Errorf("%d bytes allocated, budget %d", bytes, warmBytesBudget)
	}
}

// TestCascadeShuffledValueIsFlat: what the cascade moves through map,
// run sort, merge and reduce must stay small and free of pointers, so
// the runs holding it are memory the collector never scans.
func TestCascadeShuffledValueIsFlat(t *testing.T) {
	if size := unsafe.Sizeof(cascadeVal{}); size > 48 {
		t.Errorf("cascadeVal is %d bytes, want at most 48", size)
	}
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(cascadeVal{}), "cascadeVal")
	walk(reflect.TypeOf(partialRef{}), "partialRef")
}
