package mapreduce

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mwsjoin/internal/dfs"
)

// spillTestJob builds an integer aggregation job with the full spill
// kit: PairBytes pricing plus the pair codec. Every record fans out to
// four reducers, values sum per reducer, so output correctness is easy
// to cross-check between configurations.
func spillTestJob(cfg Config) *Job[int64, int64, int64, string] {
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

func spillInput(n int) []int64 {
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(i)
	}
	return in
}

// TestSpillEquivalence is the tentpole's correctness oracle for the
// spill path: a job forced to spill every run (1-byte budget) must
// produce bit-identical output and — aside from the Spill* counters —
// bit-identical Stats to the in-memory run, across parallelism levels,
// on a job-private and on a shared buffer pool, and under fault
// injection.
func TestSpillEquivalence(t *testing.T) {
	input := spillInput(400)
	for _, par := range []int{1, 2, 8} {
		for _, variant := range []string{"plain", "pooled", "faults"} {
			t.Run(fmt.Sprintf("par=%d/%s", par, variant), func(t *testing.T) {
				base := Config{Name: "spill", NumReducers: 7, NumMappers: 4, Parallelism: par}
				switch variant {
				case "pooled":
					base.Pool = NewBufferPool()
				case "faults":
					base.MaxAttempts = 3
					base.FailMap = func(_, attempt int) bool { return attempt < 3 }
					base.FailReduce = func(_, attempt int) bool { return attempt < 3 }
				}

				cleanOut, clean, err := spillTestJob(base).Run(input)
				if err != nil {
					t.Fatal(err)
				}
				if clean.SpilledRuns != 0 {
					t.Fatalf("in-memory run reported %d spilled runs", clean.SpilledRuns)
				}

				fs := dfs.New(0)
				spilled := base
				spilled.SpillBudget = 1 // every non-empty run spills
				spilled.SpillFS = fs
				out, st, err := spillTestJob(spilled).Run(input)
				if err != nil {
					t.Fatal(err)
				}

				if !reflect.DeepEqual(out, cleanOut) {
					t.Error("output differs between spilled and in-memory shuffle")
				}
				if st.SpilledRuns == 0 {
					t.Error("1-byte budget spilled nothing")
				}
				if st.SpillBytesWritten != st.SpilledRuns*0 && st.SpillBytesWritten != st.SpillBytesRead {
					t.Errorf("spill bytes written %d != read %d", st.SpillBytesWritten, st.SpillBytesRead)
				}
				// Committed-run accounting: every surviving pair crossed
				// the spill at 16 encoded bytes.
				if want := st.IntermediatePairs * 16; st.SpillBytesWritten != want {
					t.Errorf("SpillBytesWritten = %d, want %d (16 bytes × %d pairs)",
						st.SpillBytesWritten, want, st.IntermediatePairs)
				}
				norm, cleanNorm := *st, *clean
				zeroWalls(&norm)
				zeroWalls(&cleanNorm)
				norm.SpilledRuns, norm.SpillBytesWritten, norm.SpillBytesRead = 0, 0, 0
				if !reflect.DeepEqual(norm, cleanNorm) {
					t.Errorf("Stats leak under spilling:\n spilled %+v\n clean   %+v", norm, cleanNorm)
				}

				// Every scratch file was consumed and deleted; nothing was
				// ever charged to the simulated DFS.
				if names := fs.List(); len(names) != 0 {
					t.Errorf("scratch files left behind: %v", names)
				}
				if dst := fs.Stats(); dst != (dfs.Stats{}) {
					t.Errorf("spill I/O charged DFS Stats %+v, want all zero", dst)
				}
			})
		}
	}
}

// TestSpillBudgetThreshold checks that only over-budget runs spill: a
// generous budget keeps everything in memory even with the codec wired.
func TestSpillBudgetThreshold(t *testing.T) {
	fs := dfs.New(0)
	cfg := Config{Name: "nospill", NumReducers: 4, NumMappers: 2,
		SpillBudget: 1 << 30, SpillFS: fs}
	_, st, err := spillTestJob(cfg).Run(spillInput(100))
	if err != nil {
		t.Fatal(err)
	}
	if st.SpilledRuns != 0 || st.SpillBytesWritten != 0 {
		t.Errorf("generous budget spilled %d runs / %d bytes", st.SpilledRuns, st.SpillBytesWritten)
	}
}

// TestSpillWithoutCodecNeverSpills: a budget with no EncodePair/
// DecodePair must run in memory (jobs without the codec can't spill).
func TestSpillWithoutCodecNeverSpills(t *testing.T) {
	fs := dfs.New(0)
	cfg := Config{Name: "nocodec", NumReducers: 4, NumMappers: 2,
		SpillBudget: 1, SpillFS: fs}
	j := spillTestJob(cfg)
	j.EncodePair = nil
	j.DecodePair = nil
	ref := spillTestJob(Config{Name: "nocodec", NumReducers: 4, NumMappers: 2})
	want, _, err := ref.Run(spillInput(100))
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := j.Run(spillInput(100))
	if err != nil {
		t.Fatal(err)
	}
	if st.SpilledRuns != 0 {
		t.Errorf("codec-less job spilled %d runs", st.SpilledRuns)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("codec-less output differs")
	}
}

// TestSpillConfigValidation: a budget without a scratch FS is a
// configuration error, caught before any work runs.
func TestSpillConfigValidation(t *testing.T) {
	cfg := Config{Name: "bad", NumReducers: 2, SpillBudget: 1}
	if _, _, err := spillTestJob(cfg).Run(spillInput(10)); err == nil {
		t.Fatal("SpillBudget without SpillFS should fail")
	}
}

// TestSpillDecodeErrorSurfaces: a poisoned codec must abort the job
// with a decode error and still clean up its scratch — whether a record
// fails to decode or decodes to a pair of another reducer, which would
// otherwise be handed to the wrong reducer.
func TestSpillDecodeErrorSurfaces(t *testing.T) {
	decode := spillTestJob(Config{}).DecodePair
	for want, poisoned := range map[string]func([]byte) (int64, int64, error){
		"poisoned record": func([]byte) (int64, int64, error) {
			return 0, 0, fmt.Errorf("poisoned record")
		},
		"a pair keyed": func(rec []byte) (int64, int64, error) {
			k, v, err := decode(rec)
			return (k + 1) % 2, v, err
		},
	} {
		fs := dfs.New(0)
		cfg := Config{Name: "poison", NumReducers: 2, NumMappers: 2,
			SpillBudget: 1, SpillFS: fs}
		j := spillTestJob(cfg)
		j.DecodePair = poisoned
		if _, _, err := j.Run(spillInput(50)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want %q", err, want)
		}
		if names := fs.List(); len(names) != 0 {
			t.Errorf("%s: scratch files left behind: %v", want, names)
		}
	}
}

// TestPooledEquivalence: repeated runs on one shared, warming pool must
// produce the output and Stats of a run on a job-private pool (nil
// Config.Pool) — across parallelism and faults.
func TestPooledEquivalence(t *testing.T) {
	input := spillInput(300)
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
				cleanOut, clean, err := spillTestJob(base).Run(input)
				if err != nil {
					t.Fatal(err)
				}
				pooled := base
				pooled.Pool = NewBufferPool()
				// Three runs on one pool: first fills it, later runs hit
				// recycled buffers of every type.
				for round := 0; round < 3; round++ {
					out, st, err := spillTestJob(pooled).Run(input)
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

// TestPooledSpillWordCount exercises the pool+spill combination on a
// job whose values hold pointers (strings) and whose combiner rewrites
// its run in place, so recycled chunks and spilled records of variable
// length meet in one run.
func TestPooledSpillWordCount(t *testing.T) {
	fs := dfs.New(0)
	input := wordInput()
	base := Config{Name: "wc", NumReducers: 5, NumMappers: 4, Parallelism: 4}
	want, clean, err := combineWordCountJob(base).Run(input)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Pool = NewBufferPool()
	cfg.SpillBudget = 1
	cfg.SpillFS = fs
	j := combineWordCountJob(cfg)
	j.EncodePair = func(k int, v wordN, buf []byte) []byte {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.n))
		return append(buf, v.w...)
	}
	j.DecodePair = func(rec []byte) (int, wordN, error) {
		if len(rec) < 8 {
			return 0, wordN{}, fmt.Errorf("short record")
		}
		return int(binary.LittleEndian.Uint32(rec)), wordN{string(rec[8:]), int(binary.LittleEndian.Uint32(rec[4:]))}, nil
	}
	got, st, err := j.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("pooled+spilled word count differs from reference")
	}
	if st.SpilledRuns == 0 {
		t.Error("nothing spilled under a 1-byte budget")
	}
	norm, cleanNorm := *st, *clean
	zeroWalls(&norm)
	zeroWalls(&cleanNorm)
	norm.SpilledRuns, norm.SpillBytesWritten, norm.SpillBytesRead = 0, 0, 0
	if !reflect.DeepEqual(norm, cleanNorm) {
		t.Errorf("Stats differ:\n got  %+v\n want %+v", norm, cleanNorm)
	}
	if names := fs.List(); len(names) != 0 {
		t.Errorf("scratch left behind: %v", names)
	}
}

// TestSortedRunAllocationBudget guards the map-side run and the
// shuffle's concatenation: with a warm pool, one cycle — four mappers'
// runs of 4,096 values built chunk by chunk, finalized and copied into
// one reducer input — allocates a small constant number of objects and
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
			finalizeRun[int, int64](&runs[m][0], 0, nil, nil, pool)
		}
		in := getBufLen[int64](&pool.vals, nruns*per)
		if err := gatherInput[int, int64](in, runs, 0, nil, nil, pool); err != nil {
			t.Fatal(err)
		}
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
