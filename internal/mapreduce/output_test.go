package mapreduce

import (
	"reflect"
	"runtime"
	"testing"
)

// fanOutJob runs one map input per reducer, its index, and has reducer r
// emit emits(r) outputs, r<<32 | i for i in order.
func fanOutJob(cfg Config, emits func(r int) int) (*Job[int, int, int, int64], []int) {
	input := make([]int, cfg.NumReducers)
	for r := range input {
		input[r] = r
	}
	return &Job[int, int, int, int64]{
		Config: cfg,
		Map: func(r int, emit func(int, int)) error {
			emit(r, r)
			return nil
		},
		Reduce: func(r int, _ []int, emit func(int64)) error {
			for i := 0; i < emits(r); i++ {
				emit(int64(r)<<32 | int64(i))
			}
			return nil
		},
	}, input
}

// skewedEmits is a reducer load like a skewed join round's: reducer 0
// emits 100,000 outputs, every other reducer a few.
func skewedEmits(r int) int {
	if r == 0 {
		return 100_000
	}
	return 3 * r
}

// TestReduceOutputAllocation guards the reduce side's output path: on a
// pool an earlier run warmed, a job whose reducer 0 emits 100,000
// outputs and whose other reducers emit a few allocates its output slice
// and at most 64 KiB besides. A reducer's outputs grow in pooled chunks,
// never copied, and the job copies them once into a slice of exactly
// their total length; a reducer output slice grown by append instead
// copies a skewed reducer's outputs several times over.
func TestReduceOutputAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory allocates")
	}
	pool := NewBufferPool()
	job, input := fanOutJob(Config{Name: "skewed-output", NumReducers: 8, NumMappers: 2, Parallelism: 2, Pool: pool}, skewedEmits)
	run := func() []int64 {
		out, _, err := job.Run(input)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run() // fills the pool
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got := run()
	runtime.ReadMemStats(&after)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the warm run's output differs from the cold run's")
	}
	if len(got) != cap(got) || got[0] != 0 || got[skewedEmits(0)] != 1<<32 {
		t.Fatalf("output of length %d, capacity %d, is not the reducers' outputs in reducer order at the exact size", len(got), cap(got))
	}
	outBytes := uint64(cap(got)) * 8
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm run allocated %d bytes, %d of them the output slice", bytes, outBytes)
	if bytes > outBytes+64<<10 {
		t.Errorf("warm run allocated %d bytes, budget %d (the output slice and 64 KiB)", bytes, outBytes+64<<10)
	}
}

// TestDiscardedReduceAttemptRecycles: a reduce attempt the fault
// injector fails hands its output chunks to the pool before the retry
// starts, the pool's scratch lists never hold more than MaxPoolBytes —
// with room for every chunk and with room for a few — and the result
// and Stats are
// those of an unfailed run but for the attempt counters.
func TestDiscardedReduceAttemptRecycles(t *testing.T) {
	base := Config{Name: "discard", NumReducers: 4, NumMappers: 2, Parallelism: 1, MaxAttempts: 2}
	const emitted = 20_000
	emits := func(r int) int {
		if r == 0 {
			return emitted
		}
		return 3 * r
	}
	cleanJob, input := fanOutJob(base, emits)
	want, wantSt, err := cleanJob.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	chunks := int64((emitted + chunkLen(int64(0)) - 1) / chunkLen(int64(0)))
	for _, c := range []struct {
		name     string
		prefill  int // pages the pool holds before the job
		returned int64
	}{
		{"room", 0, chunks},
		// The map phase returns four chunks, which leaves twelve chunks'
		// room for the discarded attempt's forty.
		{"near the cap", MaxPoolBytes/PageBytes - 8, 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			pool := NewBufferPool()
			for i := 0; i < c.prefill; i++ {
				pool.PutPage(make([]byte, PageBytes))
			}
			cfg := base
			cfg.Pool = pool
			var atFail, atRetry int64
			cfg.FailReduce = func(r, attempt int) bool {
				if r == 0 && attempt == 1 {
					atFail = pool.scratchRetained()
					return true
				}
				return false
			}
			job, _ := fanOutJob(cfg, emits)
			reduce, calls := job.Reduce, 0
			job.Reduce = func(r int, vs []int, emit func(int64)) error {
				if r == 0 {
					if calls++; calls == 2 {
						atRetry = pool.scratchRetained()
					}
				}
				return reduce(r, vs, emit)
			}
			got, st, err := job.Run(input)
			if err != nil {
				t.Fatal(err)
			}
			if back := (atRetry - atFail) / chunkBytes; back != c.returned {
				t.Errorf("the discarded attempt's %d chunks: %d back in the pool before the retry, want %d", chunks, back, c.returned)
			}
			if got := pool.scratchRetained(); got > MaxPoolBytes || atRetry > MaxPoolBytes {
				t.Errorf("the pool retains %d bytes (%d at the retry), cap %d", got, atRetry, MaxPoolBytes)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("output differs from the unfailed run's")
			}
			if st.ReduceAttempts != wantSt.ReduceAttempts+1 || st.ReduceFailures != 1 {
				t.Errorf("reduce attempts/failures %d/%d, want %d/1", st.ReduceAttempts, st.ReduceFailures, wantSt.ReduceAttempts+1)
			}
			norm, wantNorm := *st, *wantSt
			zeroWalls(&norm)
			zeroWalls(&wantNorm)
			norm.ReduceAttempts, norm.ReduceFailures = wantNorm.ReduceAttempts, wantNorm.ReduceFailures
			if !reflect.DeepEqual(norm, wantNorm) {
				t.Errorf("Stats differ from the unfailed run's:\n got  %+v\n want %+v", norm, wantNorm)
			}
		})
	}
}
