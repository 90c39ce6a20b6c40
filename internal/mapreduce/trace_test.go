package mapreduce

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"mwsjoin/internal/trace"
)

// TestReduceFaultInjectionRetry mirrors TestFaultInjectionRetry on the
// reduce side: a reducer that fails twice succeeds on the third
// attempt, its partial output from the failed attempts is discarded,
// and the job output is unaffected.
func TestReduceFaultInjectionRetry(t *testing.T) {
	job := &Job[int, int, int, int]{
		Config: Config{
			Name: "red-faults", NumReducers: 2, NumMappers: 2, MaxAttempts: 3,
			FailReduce: func(reducer, attempt int) bool { return reducer == 0 && attempt <= 2 },
		},
		Map: func(x int, emit func(int, int)) error { emit(x%2, x); return nil },
		Reduce: func(k int, vs []int, emit func(int)) error {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			emit(sum)
			return nil
		},
	}
	out, stats, err := job.Run([]int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(out)
	if !reflect.DeepEqual(out, []int{4, 6}) {
		t.Errorf("out = %v, want [4 6]", out)
	}
	// Reducer 0 ran 3 attempts (2 injected failures), reducer 1 one.
	if stats.ReduceFailures != 2 || stats.ReduceAttempts != 4 {
		t.Errorf("stats = %+v, want 2 reduce failures over 4 attempts", stats)
	}
	if stats.MapAttempts != 2 || stats.MapFailures != 0 {
		t.Errorf("map stats disturbed: %+v", stats)
	}
	// Discarded attempts must not leak output records.
	if stats.ReduceOutputRecords != 2 {
		t.Errorf("ReduceOutputRecords = %d, want 2", stats.ReduceOutputRecords)
	}
	if stats.ReduceInputKeys != 2 {
		t.Errorf("ReduceInputKeys = %d, want 2", stats.ReduceInputKeys)
	}
}

func TestReduceFaultInjectionExhausted(t *testing.T) {
	job := &Job[int, int, int, int]{
		Config: Config{
			Name: "red-doomed", NumReducers: 1, NumMappers: 1, MaxAttempts: 2,
			FailReduce: func(reducer, attempt int) bool { return true },
		},
		Map:    func(x int, emit func(int, int)) error { emit(0, x); return nil },
		Reduce: func(k int, vs []int, emit func(int)) error { emit(k); return nil },
	}
	_, _, err := job.Run([]int{1})
	if err == nil || !strings.Contains(err.Error(), "reducer 0 failed after 2 attempts") {
		t.Errorf("err = %v", err)
	}
}

// TestReduceFaultSkipsEmptyReducers: reducers that received no pairs
// never run attempts, so fault injection cannot fire for them (the
// engine only schedules attempts for input-bearing tasks, as with
// mappers).
func TestReduceFaultSkipsEmptyReducers(t *testing.T) {
	job := &Job[int, int, int, int]{
		Config: Config{
			Name: "red-sparse", NumReducers: 8, NumMappers: 1, MaxAttempts: 1,
			// Would exhaust immediately if consulted for reducer 5.
			FailReduce: func(reducer, attempt int) bool { return reducer == 5 },
		},
		Map:    func(x int, emit func(int, int)) error { emit(0, x); return nil },
		Reduce: func(k int, vs []int, emit func(int)) error { emit(len(vs)); return nil },
	}
	out, stats, err := job.Run([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []int{3}) {
		t.Errorf("out = %v", out)
	}
	if stats.ReduceAttempts != 1 {
		t.Errorf("ReduceAttempts = %d, want 1 (only the input-bearing reducer)", stats.ReduceAttempts)
	}
}

// TestCombinedMapReduceFaults: map and reduce faults in the same job
// retry independently and leave the output intact.
func TestCombinedMapReduceFaults(t *testing.T) {
	job := wordCountJob(Config{
		Name: "both-faults", NumReducers: 3, NumMappers: 2, MaxAttempts: 3,
		FailMap:    func(mapper, attempt int) bool { return mapper == 1 && attempt == 1 },
		FailReduce: func(reducer, attempt int) bool { return attempt == 1 },
	})
	out, stats, err := job.Run([]string{"a b a", "c b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	if !reflect.DeepEqual(out, []string{"a=3", "b=2", "c=1"}) {
		t.Errorf("out = %v", out)
	}
	if stats.MapFailures != 1 || stats.ReduceFailures == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestTracedRunSameResults: tracing must be semantics-transparent —
// identical output and stats with and without a tracer.
func TestTracedRunSameResults(t *testing.T) {
	input := []string{"x y", "y z z", "x"}
	plain, plainStats, err := wordCountJob(Config{Name: "j", NumReducers: 3}).Run(input)
	if err != nil {
		t.Fatal(err)
	}
	traced, tracedStats, err := wordCountJob(Config{Name: "j", NumReducers: 3, Tracer: trace.New()}).Run(input)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(plain)
	sort.Strings(traced)
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("outputs differ: %v vs %v", plain, traced)
	}
	if plainStats.IntermediatePairs != tracedStats.IntermediatePairs ||
		plainStats.IntermediateBytes != tracedStats.IntermediateBytes ||
		plainStats.ReduceInputKeys != tracedStats.ReduceInputKeys {
		t.Errorf("stats differ: %+v vs %+v", plainStats, tracedStats)
	}
}

func TestStatsAddReduceCounters(t *testing.T) {
	a := &Stats{ReduceAttempts: 2, ReduceFailures: 1}
	a.Add(&Stats{ReduceAttempts: 3, ReduceFailures: 2})
	if a.ReduceAttempts != 5 || a.ReduceFailures != 3 {
		t.Errorf("Add = %+v", a)
	}
}

// BenchmarkShuffleNilTracer is the nil-tracer twin of
// BenchmarkShuffleThroughput: the engine with Tracer == nil must cost
// the same as the engine before tracing existed. Compare with
// BenchmarkShuffleTraced to see the tracing overhead when enabled.
func BenchmarkShuffleNilTracer(b *testing.B) {
	benchmarkShuffle(b, nil)
}

func BenchmarkShuffleTraced(b *testing.B) {
	benchmarkShuffle(b, trace.New())
}

func benchmarkShuffle(b *testing.B, tr *trace.Tracer) {
	input := make([]int, 10000)
	for i := range input {
		input[i] = i
	}
	job := &Job[int, int, int, int]{
		Config: Config{Name: "bench", NumReducers: 64, NumMappers: 4, Tracer: tr},
		Map:    func(x int, emit func(int, int)) error { emit(x%64, x); emit((x+7)%64, x); return nil },
		Reduce: func(k int, vs []int, emit func(int)) error {
			emit(len(vs))
			return nil
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := job.Run(input); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNilTracerHotLoopNoAllocs asserts the acceptance criterion that
// the nil-tracer path adds no allocations on the hot shuffle loop: the
// per-pair emit path never touches the tracer (by construction — see
// the shuffle comment in Run), and every per-phase tracer call on a
// nil tracer is allocation-free.
func TestNilTracerHotLoopNoAllocs(t *testing.T) {
	var tr *trace.Tracer
	allocs := testing.AllocsPerRun(500, func() {
		// The exact tracer call sequence Run makes per job when
		// tracing is off (task logging is skipped entirely: traced
		// == false).
		jobSpan := tr.Start(0, trace.KindJob, "job")
		mapSpan := tr.Start(jobSpan, trace.KindPhase, "map")
		tr.End(mapSpan)
		reduceSpan := tr.Start(jobSpan, trace.KindPhase, "reduce")
		tr.End(reduceSpan)
		tr.End(jobSpan)
	})
	if allocs != 0 {
		t.Errorf("nil-tracer job overhead = %.1f allocs, want 0", allocs)
	}
}
