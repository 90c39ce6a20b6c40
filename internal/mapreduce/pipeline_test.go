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

// pipelineJob builds a deterministic pseudo-random aggregation job over
// seven reducers whose fan-out and fault injection are tunable from the
// test table.
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
			// Skewed fan-out: record x emits 1+x%4 pairs, so every
			// reducer collects values from many mappers.
			for s := int64(0); s <= x%4; s++ {
				emit((x*31+s*17)%7, x)
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

// spanSummary flattens a trace into comparable (parent, kind, name)
// tuples, dropping wall-clock times.
func spanSummary(tr *trace.Tracer) []string {
	var out []string
	for _, s := range tr.Spans() {
		out = append(out, fmt.Sprintf("%d|%s|%s", s.Parent, s.Kind, s.Name))
	}
	return out
}

// referenceRun states the engine's contract directly, serially and
// without the engine's data structures — it is the oracle the shuffle
// is tested against. Mapper m of nm = min(NumMappers, n) reads the split
// [n·m/nm, n·(m+1)/nm); a pair's key is its reducer; Combine sees each
// non-empty (mapper, reducer) run once, in emit order; reducers run in
// index order, each once over its values in (mapper, emit) order. Only
// the fields that contract determines are filled in: attempt counters
// and walls depend on the fault schedule.
func referenceRun[I any, K ReducerKey, V any, O any](t *testing.T, j *Job[I, K, V, O], input []I) ([]O, *Stats) {
	t.Helper()
	n, nr := len(input), j.Config.NumReducers
	nm := min(j.Config.NumMappers, n)
	st := &Stats{Job: j.Config.Name, MapInputRecords: int64(n), PairsPerReducer: make([]int64, nr)}
	in := make([][]V, nr)
	for m := 0; m < nm; m++ {
		runs := make([][]V, nr)
		for _, x := range input[n*m/nm : n*(m+1)/nm] {
			if err := j.Map(x, func(k K, v V) { runs[k] = append(runs[k], v) }); err != nil {
				t.Fatal(err)
			}
		}
		for r, vs := range runs {
			if len(vs) == 0 {
				continue
			}
			if j.Combine != nil {
				st.CombineInputPairs += int64(len(vs))
				vs = slices.Clone(j.Combine(K(r), vs))
				st.CombineOutputPairs += int64(len(vs))
			}
			in[r] = append(in[r], vs...)
			st.PairsPerReducer[r] += int64(len(vs))
			st.IntermediatePairs += int64(len(vs))
			for _, v := range vs {
				if j.PairBytes != nil {
					st.IntermediateBytes += int64(j.PairBytes(K(r), v))
				}
			}
		}
	}
	var out []O
	for r, vs := range in {
		if len(vs) == 0 {
			continue
		}
		st.ReduceInputKeys++
		if err := j.Reduce(K(r), vs, func(o O) { out = append(out, o) }); err != nil {
			t.Fatal(err)
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
// equal referenceRun's, and full Stats and span trees are bit-identical
// across Parallelism ∈ {1, 2, 8}, with and without simultaneous
// map+reduce fault injection — for the plain shuffle, with a Combine
// hook, with every run spilled, and with both.
func TestPipelineEquivalence(t *testing.T) {
	codec := spillTestJob(Config{})
	for _, shape := range []string{"plain", "combine", "spill", "combine+spill"} {
		for _, inject := range []bool{false, true} {
			var refStats *Stats
			var refSpans []string
			for _, par := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s/inject=%v/par=%d", shape, inject, par)
				job, input := pipelineJob(par, inject)
				fs := dfs.New(0)
				if strings.Contains(shape, "combine") {
					job.Combine = sumCombine
				}
				if strings.Contains(shape, "spill") {
					job.Config.SpillBudget, job.Config.SpillFS = 1, fs
					job.EncodePair, job.DecodePair = codec.EncodePair, codec.DecodePair
				}
				tr := trace.New()
				job.Config.Tracer = tr
				out, stats, err := job.Run(input)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if strings.Contains(shape, "spill") && (stats.SpilledRuns == 0 || len(fs.List()) != 0) {
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

// TestRunsSpanChunks: runs thousands of values long — many chunks each —
// reach Combine, the spill file and the reducer as one sequence in emit
// order. An order-sensitive reducer and a combiner that keeps every
// other value hold every path to referenceRun.
func TestRunsSpanChunks(t *testing.T) {
	codec := spillTestJob(Config{})
	input := spillInput(5000) // ≈ 3,300 values per (mapper, reducer) run
	for _, shape := range []string{"plain", "combine", "spill", "combine+spill"} {
		fs := dfs.New(0)
		job := &Job[int64, int64, int64, string]{
			Config: Config{Name: "long", NumReducers: 3, NumMappers: 2, Parallelism: 2},
			Map: func(x int64, emit func(int64, int64)) error {
				emit(x%3, x)
				emit((x+1)%3, -x)
				return nil
			},
			Reduce: func(k int64, vs []int64, emit func(string)) error {
				var weighted int64
				for i, v := range vs {
					weighted += v * int64(i+1)
				}
				emit(fmt.Sprintf("%d:%d:%d", k, len(vs), weighted))
				return nil
			},
			PairBytes: func(int64, int64) int { return 16 },
		}
		if strings.Contains(shape, "combine") {
			job.Combine = func(_ int64, vs []int64) []int64 {
				kept := vs[:0]
				for i, v := range vs {
					if i%2 == 0 {
						kept = append(kept, v)
					}
				}
				return kept
			}
		}
		if strings.Contains(shape, "spill") {
			job.Config.SpillBudget, job.Config.SpillFS = 1, fs
			job.EncodePair, job.DecodePair = codec.EncodePair, codec.DecodePair
		}
		out, stats, err := job.Run(input)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		wantOut, wantStats := referenceRun(t, job, input)
		if !reflect.DeepEqual(out, wantOut) {
			t.Errorf("%s: outputs differ from the reference\n got %v\nwant %v", shape, out, wantOut)
		}
		if got := contractStats(stats); !reflect.DeepEqual(got, *wantStats) {
			t.Errorf("%s: stats differ from the reference\n got %+v\nwant %+v", shape, got, *wantStats)
		}
	}
}

// TestMergeMatchesLegacyRandom holds the shuffle — each reducer's runs
// concatenated in mapper order — to referenceRun across random
// workloads: reducer and mapper counts, input sizes, and fan-out.
func TestMergeMatchesLegacyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		reducers := 1 + rng.Intn(8)
		mappers := 1 + rng.Intn(6)
		records := rng.Intn(200)
		input := make([]int64, records)
		for i := range input {
			input[i] = rng.Int63n(1 << 30)
		}
		job := &Job[int64, int, int64, string]{
			Config: Config{Name: "fuzz", NumReducers: reducers, NumMappers: mappers, Parallelism: 4},
			Map: func(x int64, emit func(int, int64)) error {
				emit(int(x%int64(reducers)), x)
				if x%3 == 0 {
					emit(int((x/7)%int64(reducers)), -x)
				}
				return nil
			},
			Reduce: func(k int, vs []int64, emit func(string)) error {
				var sb strings.Builder
				fmt.Fprintf(&sb, "%d=", k)
				for _, v := range vs {
					fmt.Fprintf(&sb, "%d,", v)
				}
				emit(sb.String())
				return nil
			},
			PairBytes: func(k int, v int64) int { return k + 8 },
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
		Config: Config{Name: "combine", NumReducers: 5, NumMappers: 4, Parallelism: 2},
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
	want := []string{"0=12", "1=12", "2=12", "3=12", "4=12"}
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
// returning nothing (the run ships nothing) and returning more values
// than it was given (the run becomes the combiner's new slice).
func TestCombinerDropAndExpand(t *testing.T) {
	input := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	job := &Job[int64, int64, int64, int64]{
		Config: Config{Name: "drop-expand", NumReducers: 4, NumMappers: 1, Parallelism: 1},
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
	// key 0 dropped; key 1 doubled: (1+5+9)*2=30; key 2: 2+6=8; key 3:
	// 3+7=10.
	want := []int64{1030, 2008, 3010}
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
// then moves, and the span tree times every attempt Stats counts: one
// task span per map and reduce attempt, under its phase. (Determinism
// across parallelism is TestPipelineEquivalence's combine shape.)
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
	if stats.MapFailures == 0 || stats.ReduceFailures == 0 {
		t.Fatalf("no injected failure fired: %+v", stats)
	}
	phases := map[trace.SpanID]string{}
	tasks := map[string]int64{}
	for _, s := range tr.Spans() {
		switch s.Kind {
		case trace.KindJob:
			if s.ID != 1 || s.Name != "prop" {
				t.Errorf("job span = %+v", s)
			}
		case trace.KindPhase:
			if s.Parent != 1 {
				t.Errorf("phase %s not under the job span", s.Name)
			}
			phases[s.ID] = s.Name
		case trace.KindTask:
			tasks[phases[s.Parent]]++
		}
	}
	if tasks["map"] != stats.MapAttempts || tasks["reduce"] != stats.ReduceAttempts || len(tasks) != 2 {
		t.Errorf("task spans per phase = %v, want map %d and reduce %d", tasks, stats.MapAttempts, stats.ReduceAttempts)
	}
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
