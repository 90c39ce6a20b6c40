package mapreduce

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/trace"
)

// pipelineJob builds a deterministic pseudo-random word-count-style job
// over int64 keys whose key cardinality, fan-out and fault injection
// are tunable from the test table.
func pipelineJob(par int, inject bool) (*Job[int64, int64, int64, string], []int64) {
	cfg := Config{Name: "prop", NumReducers: 7, NumMappers: 5, Parallelism: par}
	if inject {
		cfg.MaxAttempts = 3
		cfg.FailMap = func(m, attempt int) bool { return m%2 == 0 && attempt == 1 }
		cfg.FailReduce = func(r, attempt int) bool { return r%3 == 1 && attempt < 3 }
	}
	job := &Job[int64, int64, int64, string]{
		Config: cfg,
		Map: func(x int64, emit func(int64, int64)) error {
			// Skewed fan-out: record x emits 1+x%4 pairs over a small
			// key space so most keys collect values from many mappers.
			for s := int64(0); s <= x%4; s++ {
				emit((x*31+s*17)%23, x)
			}
			return nil
		},
		Reduce: func(k int64, vs []int64, emit func(string)) error {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			emit(fmt.Sprintf("%d:%d:%d", k, len(vs), sum))
			return nil
		},
		PairBytes: func(k, v int64) int { return int(16 + k%5) },
	}
	input := make([]int64, 97)
	for i := range input {
		input[i] = int64(i * 13 % 101)
	}
	return job, input
}

// spanSummary flattens a trace into comparable (kind, name, counters)
// tuples, dropping wall-clock times.
func spanSummary(tr *trace.Tracer) []string {
	var out []string
	for _, s := range tr.Spans() {
		out = append(out, fmt.Sprintf("%d|%s|%s|%v", s.Parent, s.Kind, s.Name, s.Counters))
	}
	return out
}

// referenceRun states the engine's contract directly, serially and
// without the engine's data structures — it is the oracle the shuffle
// is tested against. Mapper m of nm = min(NumMappers, n) reads the split
// [n·m/nm, n·(m+1)/nm); a pair goes to reducer Partition(key); Combine
// sees each (mapper, reducer) run one key group at a time; reducers run
// in index order, each over its keys ascending, a key's values in
// (mapper, emit) order. Only the fields that contract determines are
// filled in: attempt counters and walls depend on the fault schedule.
func referenceRun[I any, K cmp.Ordered, V any, O any](t *testing.T, j *Job[I, K, V, O], input []I) ([]O, *Stats) {
	t.Helper()
	n, nr := len(input), j.Config.NumReducers
	nm := min(j.Config.NumMappers, n)
	partition := j.Partition
	if partition == nil {
		partition = DefaultPartition[K]
	}
	st := &Stats{Job: j.Config.Name, MapInputRecords: int64(n), PairsPerReducer: make([]int64, nr)}
	groups := make([]map[K][]V, nr)
	for r := range groups {
		groups[r] = map[K][]V{}
	}
	for m := 0; m < nm; m++ {
		runs := make([]map[K][]V, nr)
		for r := range runs {
			runs[r] = map[K][]V{}
		}
		for _, in := range input[n*m/nm : n*(m+1)/nm] {
			if err := j.Map(in, func(k K, v V) { r := partition(k, nr); runs[r][k] = append(runs[r][k], v) }); err != nil {
				t.Fatal(err)
			}
		}
		for r, run := range runs {
			for _, k := range sortedKeys(run) {
				vs := run[k]
				if j.Combine != nil {
					st.CombineInputPairs += int64(len(vs))
					vs = slices.Clone(j.Combine(k, slices.Clone(vs)))
					st.CombineOutputPairs += int64(len(vs))
				}
				groups[r][k] = append(groups[r][k], vs...)
				st.PairsPerReducer[r] += int64(len(vs))
				st.IntermediatePairs += int64(len(vs))
				for _, v := range vs {
					if j.PairBytes != nil {
						st.IntermediateBytes += int64(j.PairBytes(k, v))
					}
				}
			}
		}
	}
	var out []O
	for r := range groups {
		for _, k := range sortedKeys(groups[r]) {
			st.ReduceInputKeys++
			if err := j.Reduce(k, groups[r][k], func(o O) { out = append(out, o) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.ReduceOutputRecords = int64(len(out))
	return out, st
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// contractStats keeps the Stats fields referenceRun determines.
func contractStats(s *Stats) Stats {
	return Stats{
		Job: s.Job, MapInputRecords: s.MapInputRecords,
		IntermediatePairs: s.IntermediatePairs, IntermediateBytes: s.IntermediateBytes,
		PairsPerReducer: s.PairsPerReducer, ReduceInputKeys: s.ReduceInputKeys,
		ReduceOutputRecords: s.ReduceOutputRecords,
		CombineInputPairs:   s.CombineInputPairs, CombineOutputPairs: s.CombineOutputPairs,
	}
}

// TestPipelineEquivalence is the shuffle's core property: outputs and
// the contract Stats (including PairsPerReducer and IntermediateBytes)
// equal referenceRun's, and full Stats and trace-span totals are
// bit-identical across Parallelism ∈ {1, 2, 8}, with and without
// simultaneous map+reduce fault injection — for the plain sorted-run
// shuffle, with a Combine hook, and with every run spilled.
func TestPipelineEquivalence(t *testing.T) {
	codec := spillTestJob(Config{})
	for _, shape := range []string{"plain", "combine", "spill"} {
		for _, inject := range []bool{false, true} {
			var refStats *Stats
			var refSpans []string
			for _, par := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s/inject=%v/par=%d", shape, inject, par)
				job, input := pipelineJob(par, inject)
				fs := dfs.New(0)
				switch shape {
				case "combine":
					job.Combine = sumCombine
				case "spill":
					job.Config.SpillBudget, job.Config.SpillFS = 1, fs
					job.EncodePair, job.DecodePair = codec.EncodePair, codec.DecodePair
				}
				tr := trace.New()
				job.Config.Tracer = tr
				out, stats, err := job.Run(input)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if shape == "spill" && (stats.SpilledRuns == 0 || len(fs.List()) != 0) {
					t.Errorf("%s: %d spilled runs, scratch left %v", name, stats.SpilledRuns, fs.List())
				}
				wantOut, wantStats := referenceRun(t, job, input)
				if !reflect.DeepEqual(out, wantOut) {
					t.Errorf("%s: outputs differ from the reference\n got %v\nwant %v", name, out, wantOut)
				}
				if got := contractStats(stats); !reflect.DeepEqual(got, *wantStats) {
					t.Errorf("%s: stats differ from the reference\n got %+v\nwant %+v", name, got, *wantStats)
				}
				// Wall-clock fields can never be identical; zero them
				// before comparing.
				stats.MapWall, stats.ReduceWall, stats.TotalWall = 0, 0, 0
				spans := spanSummary(tr)
				if refStats == nil {
					refStats, refSpans = stats, spans
					continue
				}
				if !reflect.DeepEqual(stats, refStats) {
					t.Errorf("%s: stats differ across parallelism\n got %+v\nwant %+v", name, stats, refStats)
				}
				if !reflect.DeepEqual(spans, refSpans) {
					t.Errorf("%s: trace spans differ\n got %v\nwant %v", name, spans, refSpans)
				}
			}
		}
	}
}

// TestMergeMatchesLegacyRandom fuzzes the sorted-run merge against
// referenceRun across random workloads with string keys, which exercise
// the comparison-sort fallback instead of the radix ranker.
func TestMergeMatchesLegacyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		reducers := 1 + rng.Intn(8)
		mappers := 1 + rng.Intn(6)
		records := rng.Intn(200)
		keyspace := 1 + rng.Intn(30)
		input := make([]int64, records)
		for i := range input {
			input[i] = rng.Int63n(1 << 30)
		}
		job := &Job[int64, string, int64, string]{
			Config: Config{Name: "fuzz", NumReducers: reducers, NumMappers: mappers, Parallelism: 4},
			Map: func(x int64, emit func(string, int64)) error {
				emit(fmt.Sprintf("k%02d", x%int64(keyspace)), x)
				if x%3 == 0 {
					emit(fmt.Sprintf("k%02d", (x/7)%int64(keyspace)), -x)
				}
				return nil
			},
			Reduce: func(k string, vs []int64, emit func(string)) error {
				var sb strings.Builder
				fmt.Fprintf(&sb, "%s=", k)
				for _, v := range vs {
					fmt.Fprintf(&sb, "%d,", v)
				}
				emit(sb.String())
				return nil
			},
			PairBytes: func(k string, v int64) int { return len(k) + 8 },
		}
		gotOut, gotStats, err := job.Run(input)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantOut, wantStats := referenceRun(t, job, input)
		if !reflect.DeepEqual(gotOut, wantOut) {
			t.Fatalf("trial %d: outputs differ\n got %v\nwant %v", trial, gotOut, wantOut)
		}
		if got := contractStats(gotStats); !reflect.DeepEqual(got, *wantStats) {
			t.Fatalf("trial %d: stats differ\n got %+v\nwant %+v", trial, got, *wantStats)
		}
	}
}

// TestCombinerSum checks the combiner contract end to end: grouped
// pre-aggregation per mapper run, correct final outputs, and the
// CombineInputPairs / CombineOutputPairs accounting.
func TestCombinerSum(t *testing.T) {
	input := make([]int64, 60)
	for i := range input {
		input[i] = int64(i)
	}
	job := &Job[int64, int64, int64, string]{
		Config: Config{Name: "combine", NumReducers: 3, NumMappers: 4, Parallelism: 2},
		Map: func(x int64, emit func(int64, int64)) error {
			emit(x%5, 1) // 60 pairs over 5 keys
			return nil
		},
		Combine: func(k int64, vs []int64) []int64 {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			vs[0] = sum
			return vs[:1]
		},
		Reduce: func(k int64, vs []int64, emit func(string)) error {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			emit(fmt.Sprintf("%d=%d", k, sum))
			return nil
		},
		PairBytes: func(k, v int64) int { return 16 },
	}
	out, stats, err := job.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0=12", "3=12", "1=12", "4=12", "2=12"} // reducer order: keys 0,3 -> r0; 1,4 -> r1; 2 -> r2
	if !reflect.DeepEqual(out, want) {
		t.Errorf("outputs = %v, want %v", out, want)
	}
	if stats.CombineInputPairs != 60 {
		t.Errorf("CombineInputPairs = %d, want 60", stats.CombineInputPairs)
	}
	// 4 mappers × 5 keys, one post-combine pair per (mapper, key).
	if stats.CombineOutputPairs != 20 || stats.IntermediatePairs != 20 {
		t.Errorf("CombineOutputPairs = %d, IntermediatePairs = %d, want 20, 20", stats.CombineOutputPairs, stats.IntermediatePairs)
	}
	// Bytes are measured post-combine.
	if stats.IntermediateBytes != 20*16 {
		t.Errorf("IntermediateBytes = %d, want %d", stats.IntermediateBytes, 20*16)
	}
}

// TestCombinerDropAndExpand exercises the two tricky combiner shapes:
// returning nothing (the key disappears from that run) and returning
// more values than consumed (the engine must abandon the in-place
// rewrite rather than clobber unread pairs).
func TestCombinerDropAndExpand(t *testing.T) {
	input := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	job := &Job[int64, int64, int64, int64]{
		Config: Config{Name: "drop-expand", NumReducers: 2, NumMappers: 1, Parallelism: 1},
		Map: func(x int64, emit func(int64, int64)) error {
			emit(x%4, x)
			return nil
		},
		Combine: func(k int64, vs []int64) []int64 {
			if k == 0 {
				return nil // drop key 0 entirely
			}
			if k == 1 {
				// Expand: duplicate every value.
				out := make([]int64, 0, 2*len(vs))
				for _, v := range vs {
					out = append(out, v, v)
				}
				return out
			}
			return vs
		},
		Reduce: func(k int64, vs []int64, emit func(int64)) error {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			emit(k*1000 + sum)
			return nil
		},
	}
	out, stats, err := job.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	// key 0 dropped; key 1 doubled: (1+5+9)*2=30; key 2: 2+6=8 on r0;
	// key 3: 3+7=10 on r1.
	want := []int64{2008, 1030, 3010}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("outputs = %v, want %v", out, want)
	}
	if stats.CombineInputPairs != 10 {
		t.Errorf("CombineInputPairs = %d, want 10", stats.CombineInputPairs)
	}
	// key 0: 3 -> 0, key 1: 3 -> 6, keys 2 and 3: 2 -> 2 each.
	if stats.CombineOutputPairs != 10 || stats.IntermediatePairs != 10 {
		t.Errorf("CombineOutputPairs = %d, IntermediatePairs = %d, want 10, 10", stats.CombineOutputPairs, stats.IntermediatePairs)
	}
}

// TestCombinerDeterminismAndTrace: under fault injection a combiner's
// accounting covers committed map attempts only and is what the shuffle
// then moves, and the job span exposes it. (Determinism across
// parallelism is TestPipelineEquivalence's combine shape.)
func TestCombinerDeterminismAndTrace(t *testing.T) {
	job, input := pipelineJob(2, true)
	job.Combine = sumCombine
	tr := trace.New()
	job.Config.Tracer = tr
	_, stats, err := job.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CombineInputPairs <= stats.CombineOutputPairs {
		t.Errorf("combiner did not shrink: in=%d out=%d", stats.CombineInputPairs, stats.CombineOutputPairs)
	}
	if stats.IntermediatePairs != stats.CombineOutputPairs {
		t.Errorf("IntermediatePairs = %d, want CombineOutputPairs %d", stats.IntermediatePairs, stats.CombineOutputPairs)
	}
	jobSpans := tr.Find(trace.KindJob, "prop")
	if len(jobSpans) != 1 {
		t.Fatalf("want 1 job span, got %d", len(jobSpans))
	}
	jobSpan := jobSpans[0]
	if jobSpan.Counters["combine_in"] != stats.CombineInputPairs || jobSpan.Counters["combine_out"] != stats.CombineOutputPairs {
		t.Errorf("job span combine counters = %d/%d, want %d/%d",
			jobSpan.Counters["combine_in"], jobSpan.Counters["combine_out"],
			stats.CombineInputPairs, stats.CombineOutputPairs)
	}
}

// TestRadixMatchesComparisonSort cross-checks the radix run sort
// against the comparison sort on random runs over assorted widths and
// spans, including negative keys and single-key runs.
func TestRadixMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rank := keyRanker[int64]()
	if rank == nil {
		t.Fatal("keyRanker[int64] = nil")
	}
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(500)
		span := int64(1) << uint(rng.Intn(40))
		ps := make([]pair[int64, int64], n)
		for i := range ps {
			ps[i] = pair[int64, int64]{key: rng.Int63n(2*span+1) - span, val: int64(i)}
		}
		want := make([]pair[int64, int64], n)
		copy(want, ps)
		slicesStableByKey(want)
		got := radixSortPairs(ps, rank, NewBufferPool())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d span=%d): radix order differs", trial, n, span)
		}
	}
}

// slicesStableByKey is the reference sort for TestRadixMatchesComparisonSort.
func slicesStableByKey(ps []pair[int64, int64]) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].key < ps[j-1].key; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// TestKeyRankerKinds checks rank monotonicity for every supported key
// kind, including named integer types like grid cell IDs.
func TestKeyRankerKinds(t *testing.T) {
	if r := keyRanker[string](); r != nil {
		t.Error("keyRanker[string] should be nil")
	}
	if r := keyRanker[float64](); r != nil {
		t.Error("keyRanker[float64] should be nil")
	}
	checkInt := func(t *testing.T, name string, ranks []uint64) {
		t.Helper()
		for i := 1; i < len(ranks); i++ {
			if ranks[i-1] >= ranks[i] {
				t.Errorf("%s: rank not strictly increasing at %d: %v", name, i, ranks)
			}
		}
	}
	ri := keyRanker[int64]()
	checkInt(t, "int64", []uint64{ri(-1 << 62), ri(-7), ri(0), ri(9), ri(1 << 62)})
	type cellID int32 // mirrors grid.CellID
	rc := keyRanker[cellID]()
	if rc == nil {
		t.Fatal("keyRanker for named int32 = nil")
	}
	checkInt(t, "cellID", []uint64{rc(-9), rc(-1), rc(0), rc(3), rc(1 << 30)})
	ru := keyRanker[uint16]()
	checkInt(t, "uint16", []uint64{ru(0), ru(1), ru(65535)})
}

// TestRunTasksAtomicStride verifies the stride dispatcher runs every
// task exactly once at full parallelism.
func TestRunTasksAtomicStride(t *testing.T) {
	const n = 1000
	counts := make([]int32, n)
	runTasks(8, n, func(i int) { counts[i]++ })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}
