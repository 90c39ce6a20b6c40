package mapreduce

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"mwsjoin/internal/trace"
)

// sumTestJob builds an integer aggregation job with PairBytes pricing
// and a value codec. Every record fans out to four reducers, values
// sum per reducer, so output correctness is easy to cross-check between
// configurations.
func sumTestJob(cfg Config) *Job[int64, int64, int64, string] {
	return &Job[int64, int64, int64, string]{
		Config: cfg,
		Map: func(x int64, emit func(int64, int64)) error {
			for s := int64(0); s < 4; s++ {
				emit((x*31+s*7)%int64(cfg.NumReducers), x)
			}
			return nil
		},
		Reduce: func(k int64, vs []int64, emit func(string)) error {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			emit(fmt.Sprintf("%d=%d(%d)", k, sum, len(vs)))
			return nil
		},
		PairBytes: func(int64, int64) int { return 16 },
		Values:    int64Codec,
	}
}

// int64Codec ships an int64 as 8 little-endian bytes.
var int64Codec = Codec[int64]{
	Size:   func(int64) int { return 8 },
	Append: func(buf []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(buf, uint64(v)) },
	Read: func(buf []byte) (int64, []byte, error) {
		if len(buf) < 8 {
			return 0, nil, fmt.Errorf("an int64 record cut short at %d bytes", len(buf))
		}
		return int64(binary.LittleEndian.Uint64(buf)), buf[8:], nil
	},
}

func seqInput(n int) []int64 {
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(i)
	}
	return in
}

// TestPooledEquivalence: repeated runs on one shared, warming pool must
// produce the output and Stats of a run on a job-private pool (nil
// Config.Pool) — across parallelism and faults.
func TestPooledEquivalence(t *testing.T) {
	input := seqInput(300)
	for _, par := range []int{1, 2, 8} {
		for _, variant := range []string{"plain", "faults"} {
			t.Run(fmt.Sprintf("par=%d/%s", par, variant), func(t *testing.T) {
				base := Config{Name: "pool", NumReducers: 5, NumMappers: 4, Parallelism: par}
				switch variant {
				case "faults":
					base.MaxAttempts = 3
					base.FailMap = func(_, attempt int) bool { return attempt < 3 }
					base.FailReduce = func(_, attempt int) bool { return attempt < 3 }
				}
				cleanOut, clean, err := sumTestJob(base).Run(input)
				if err != nil {
					t.Fatal(err)
				}
				pooled := base
				pooled.Pool = NewBufferPool()
				// Three runs on one pool: first fills it, later runs hit
				// recycled buffers of every type.
				for round := 0; round < 3; round++ {
					out, st, err := sumTestJob(pooled).Run(input)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(out, cleanOut) {
						t.Errorf("round %d: pooled output differs", round)
					}
					norm, cleanNorm := *st, *clean
					zeroWalls(&norm)
					zeroWalls(&cleanNorm)
					if !reflect.DeepEqual(norm, cleanNorm) {
						t.Errorf("round %d: pooled Stats differ:\n pooled %+v\n clean  %+v", round, norm, cleanNorm)
					}
				}
			})
		}
	}
}

// TestSortedRunAllocationBudget guards the map-side run and the
// shuffle's concatenation: with a warm pool, one cycle — four mappers'
// runs of 4,096 values built chunk by chunk and copied into one reducer
// input — allocates a small constant number of objects and
// a small fraction of the bytes one copy of the values takes, however
// long the runs are.
func TestSortedRunAllocationBudget(t *testing.T) {
	const nruns, per = 4, 1 << 12
	pool := NewBufferPool()
	cycle := func() {
		runs := make([][]run[int64], nruns)
		for m := range runs {
			runs[m] = make([]run[int64], 1)
			for i := 0; i < per; i++ {
				runs[m][0].add(int64(i), pool)
			}
		}
		in := getBufLen[int64](&pool.sets, nruns*per)
		gatherInput(in, runs, 0, pool)
		if in[per] != 0 || in[len(in)-1] != per-1 {
			t.Fatalf("reducer input is not the runs in mapper order")
		}
		putBuf(&pool.sets, in)
	}
	// Warm the pool: the first cycle allocates the steady-state buffers.
	cycle()
	cycle()

	// Steady state: the per-cycle headers (the runs matrix, each run's
	// chunk list) still allocate, but every value array must come from
	// the pool. The race detector's shadow bookkeeping allocates on its
	// own, so the budget only holds uninstrumented.
	if !raceEnabled {
		const cycles = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(cycles, cycle)
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up call besides the measured ones.
		bytes := (after.TotalAlloc - before.TotalAlloc) / (cycles + 1)
		if allocs > 32 {
			t.Errorf("warm-pool run+shuffle cycle allocates %.0f objects, budget 32", allocs)
		}
		if copyBytes := uint64(nruns * per * 8); bytes > copyBytes/16 {
			t.Errorf("warm-pool run+shuffle cycle allocates %d bytes, budget %d (1/16 of one copy)", bytes, copyBytes/16)
		}
	}
}

// TestReducersRunLargestFirst: reduce tasks start in descending pair
// count, ties by index, and nothing the job returns shows it — outputs,
// ends, Stats and the reduce phase's task spans are in reducer order.
func TestReducersRunLargestFirst(t *testing.T) {
	// Reducer r's pairs are the input's records equal to r: counts
	// 2, 5, 0, 5, 1, 3, 5, interleaved so each reducer's values come
	// from several of the three mappers.
	loads := []int{2, 5, 0, 5, 1, 3, 5}
	var input []int
	for round := 0; round < 5; round++ {
		for r, n := range loads {
			if round < n {
				input = append(input, r)
			}
		}
	}
	tr := trace.New()
	var called []int
	job := &Job[int, int, int, int]{
		Config: Config{Name: "largest-first", NumReducers: len(loads), NumMappers: 3, Parallelism: 1, Tracer: tr},
		Map:    func(r int, emit func(int, int)) error { emit(r, r); return nil },
		Reduce: func(r int, vs []int, emit func(int)) error {
			called = append(called, r)
			for i := range vs {
				emit(r<<8 | i)
			}
			return nil
		},
	}
	out, ends, st, err := job.RunBlocks(len(input), EvenSplits(len(input)), func(lo, hi int, yield func(int) error) error {
		for _, r := range input[lo:hi] {
			if err := yield(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3, 6, 5, 0, 4}; !reflect.DeepEqual(called, want) {
		t.Errorf("Reduce called for reducers %v, want %v", called, want)
	}
	// In reducer order: the outputs, where each reducer's end, the
	// counters and one task span per reducer that received pairs.
	var wantOut, wantEnds []int
	var wantSpans []string
	wantPairs := make([]int64, len(loads))
	for r, n := range loads {
		for i := 0; i < n; i++ {
			wantOut = append(wantOut, r<<8|i)
		}
		wantEnds = append(wantEnds, len(wantOut))
		if n > 0 {
			wantSpans = append(wantSpans, fmt.Sprintf("reduce-%d#1", r))
		}
		wantPairs[r] = int64(n)
	}
	if !reflect.DeepEqual(out, wantOut) || !reflect.DeepEqual(ends, wantEnds) {
		t.Errorf("outputs %v ending %v, want %v ending %v", out, ends, wantOut, wantEnds)
	}
	norm := *st
	zeroWalls(&norm)
	wantSt := Stats{Job: "largest-first", MapInputRecords: 21, IntermediatePairs: 21, ReduceInputKeys: 6,
		ReduceOutputRecords: 21, MapAttempts: 3, ReduceAttempts: 6, PairsPerReducer: wantPairs}
	if !reflect.DeepEqual(norm, wantSt) {
		t.Errorf("Stats\n got  %+v\n want %+v", norm, wantSt)
	}
	var reducePhase trace.SpanID
	var spans []string
	for _, s := range tr.Spans() {
		switch {
		case s.Kind == trace.KindPhase && s.Name == "reduce":
			reducePhase = s.ID
		case s.Kind == trace.KindTask && s.Parent == reducePhase && reducePhase != 0:
			spans = append(spans, s.Name)
		}
	}
	if !reflect.DeepEqual(spans, wantSpans) {
		t.Errorf("reduce task spans %v, want %v", spans, wantSpans)
	}
}
