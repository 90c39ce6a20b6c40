package mapreduce

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// sumTestJob builds an integer aggregation job with PairBytes pricing
// and the pair codec. Every record fans out to four reducers, values
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
		EncodePair: func(k, v int64, buf []byte) []byte {
			var rec [16]byte
			binary.LittleEndian.PutUint64(rec[0:], uint64(k))
			binary.LittleEndian.PutUint64(rec[8:], uint64(v))
			return append(buf, rec[:]...)
		},
		DecodePair: func(rec []byte) (int64, int64, error) {
			if len(rec) != 16 {
				return 0, 0, fmt.Errorf("pair record has %d bytes, want 16", len(rec))
			}
			return int64(binary.LittleEndian.Uint64(rec[0:])),
				int64(binary.LittleEndian.Uint64(rec[8:])), nil
		},
	}
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
		in := getBufLen[int64](&pool.vals, nruns*per)
		gatherInput(in, runs, 0, pool)
		if in[per] != 0 || in[len(in)-1] != per-1 {
			t.Fatalf("reducer input is not the runs in mapper order")
		}
		putBuf(&pool.vals, in)
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
