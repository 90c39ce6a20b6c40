package spatial

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/mapreduce"
)

// normalizeSpillRounds extends normalizeRounds for comparisons between a
// spilling run and an in-memory run: besides the walls, the Spill*
// counters are the only fields documented to differ.
func normalizeSpillRounds(rounds []*mapreduce.Stats) []mapreduce.Stats {
	out := normalizeRounds(rounds)
	for i := range out {
		out[i].SpilledRuns, out[i].SpillBytesWritten, out[i].SpillBytesRead = 0, 0, 0
	}
	return out
}

// totalSpilledRuns sums the committed spill counter across rounds.
func totalSpilledRuns(rounds []*mapreduce.Stats) (runs, written, read int64) {
	for _, r := range rounds {
		runs += r.SpilledRuns
		written += r.SpillBytesWritten
		read += r.SpillBytesRead
	}
	return
}

// assertNoScratch fails if any uncharged local spill file survived the
// run — every spilled run must be consumed and deleted by the shuffle,
// and aborted attempts must discard theirs.
func assertNoScratch(t *testing.T, fs *dfs.FS, label string) {
	t.Helper()
	for _, name := range fs.List() {
		if len(name) >= 6 && name[:6] == "spill/" {
			t.Errorf("%s: spill scratch %q left on the FS", label, name)
		}
	}
}

// TestColumnarSpillEquivalenceBattery is the memory path's acceptance
// battery: across random workloads, every map-reduce method run with a
// 1-byte spill budget (every non-empty run spills) produces
// bit-identical tuples, identical charged DFS Stats, and identical
// per-round engine stats (modulo walls and the Spill* counters) to the
// in-memory run — at Parallelism 1, 2 and 8, and under map+reduce fault
// injection.
func TestColumnarSpillEquivalenceBattery(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 2013))
	const trials = 3
	for trial := 0; trial < trials; trial++ {
		nSlots := 2 + rng.IntN(2)
		n := 20 + rng.IntN(41)
		rels := randomRelations(rng, nSlots, n, 500, 50)
		slots := make([]string, nSlots)
		for i, rel := range rels {
			slots[i] = rel.Name
		}
		q := randomPropertyQuery(rng, slots)

		for _, m := range mrMethods {
			for _, par := range []int{1, 2, 8} {
				label := fmt.Sprintf("trial %d %v par=%d", trial, m, par)
				// The in-memory baseline runs at the same parallelism:
				// NumMappers defaults from Parallelism, so MapAttempts
				// legitimately varies with it.
				base, err := Execute(m, q, rels, Config{Parallelism: par})
				if err != nil {
					t.Fatalf("%s: in-memory baseline: %v", label, err)
				}
				fs := dfs.New(0)
				res, err := Execute(m, q, rels, Config{
					FS:          fs,
					Parallelism: par,
					SpillBudget: 1,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(res.Tuples, base.Tuples) {
					t.Errorf("%s: tuples differ from the in-memory run", label)
				}
				if res.Stats.DFS != base.Stats.DFS {
					t.Errorf("%s: charged DFS stats differ:\nspill     %+v\nin-memory %+v",
						label, res.Stats.DFS, base.Stats.DFS)
				}
				if !reflect.DeepEqual(normalizeSpillRounds(res.Stats.Rounds), normalizeSpillRounds(base.Stats.Rounds)) {
					t.Errorf("%s: per-round engine stats differ beyond walls and Spill*", label)
				}
				if res.Stats.RectanglesReplicated != base.Stats.RectanglesReplicated ||
					res.Stats.RectanglesAfterReplication != base.Stats.RectanglesAfterReplication ||
					res.Stats.ReplicationCopies != base.Stats.ReplicationCopies ||
					res.Stats.OutputTuples != base.Stats.OutputTuples {
					t.Errorf("%s: replication counters differ from the in-memory run", label)
				}
				runs, written, read := totalSpilledRuns(res.Stats.Rounds)
				if runs == 0 {
					t.Errorf("%s: SpillBudget=1 never spilled", label)
				}
				if written != read {
					t.Errorf("%s: spill wrote %d bytes but read back %d", label, written, read)
				}
				if br, _, _ := totalSpilledRuns(base.Stats.Rounds); br != 0 {
					t.Errorf("%s: in-memory baseline reports %d spilled runs", label, br)
				}
				assertNoScratch(t, fs, label)
			}

			// Fault injection on top: retried and discarded attempts must
			// recycle their buffers and scratch without changing anything.
			// The baseline gets the identical fault schedule — retry
			// counters land in the checkpoint meta records, so a faulted
			// run's charged bytes only reconcile against a faulted run.
			label := fmt.Sprintf("trial %d %v faults", trial, m)
			faultCfg := Config{
				Parallelism: 2,
				MaxAttempts: 3,
				FailMap:     func(mapper, attempt int) bool { return mapper == 0 && attempt == 1 },
				FailReduce:  func(reducer, attempt int) bool { return reducer%3 == 0 && attempt == 1 },
			}
			base, err := Execute(m, q, rels, faultCfg)
			if err != nil {
				t.Fatalf("%s: in-memory baseline: %v", label, err)
			}
			fs := dfs.New(0)
			memCfg := faultCfg
			memCfg.FS, memCfg.SpillBudget = fs, 1
			res, err := Execute(m, q, rels, memCfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(res.Tuples, base.Tuples) {
				t.Errorf("%s: tuples differ from the in-memory run", label)
			}
			if res.Stats.DFS != base.Stats.DFS {
				t.Errorf("%s: charged DFS stats differ under faults", label)
			}
			if !reflect.DeepEqual(normalizeSpillRounds(res.Stats.Rounds), normalizeSpillRounds(base.Stats.Rounds)) {
				t.Errorf("%s: per-round engine stats differ beyond walls and Spill*", label)
			}
			var failures int64
			for _, st := range res.Stats.Rounds {
				failures += st.MapFailures + st.ReduceFailures
			}
			if failures == 0 {
				t.Errorf("%s: fault injection never fired", label)
			}
			assertNoScratch(t, fs, label)
		}
	}
}

// TestColumnarSpillKillResume kills a spilling chain before every job
// boundary and resumes it — on the same FS, with the same memory
// configuration — checking the final output is bit-identical to a clean
// in-memory run. One boundary per method resumes instead on an FS
// restored from a snapshot of the killed one, where the columnar staged
// relations come back as boxed files: input from outside the process
// that the readers must keep decoding.
func TestColumnarSpillKillResume(t *testing.T) {
	part := grid2x2(t)
	q := chain4()
	rels := figure4Relations()

	for _, m := range mrMethods {
		clean, err := Execute(m, q, rels, Config{Part: part, FS: dfs.New(0)})
		if err != nil {
			t.Fatalf("%v: clean run: %v", m, err)
		}
		jobs := int(clean.Stats.Chain.Jobs)

		for k := 0; k < jobs; k++ {
			memCfg := func(fs *dfs.FS) Config {
				return Config{Part: part, FS: fs, SpillBudget: 1}
			}
			fs := dfs.New(0)
			killCfg := memCfg(fs)
			killCfg.FailJob = func(i int) bool { return i == k }
			_, err := Execute(m, q, rels, killCfg)
			var killed *mapreduce.ChainKilledError
			if !errors.As(err, &killed) {
				t.Fatalf("%v k=%d: killed run: err = %v, want ChainKilledError", m, k, err)
			}
			assertNoScratch(t, fs, fmt.Sprintf("%v k=%d killed", m, k))

			if k == jobs-1 {
				// Cross-kind resume: snapshots hold every file in the
				// boxed wire format, and the resume must read the
				// restored relations as they are, not restage them.
				var img bytes.Buffer
				if err := fs.WriteSnapshot(&img); err != nil {
					t.Fatal(err)
				}
				if fs, err = dfs.ReadSnapshot(&img, 0); err != nil {
					t.Fatal(err)
				}
			}
			resumeCfg := memCfg(fs)
			resumeCfg.Resume = true
			res, err := Execute(m, q, rels, resumeCfg)
			if err != nil {
				t.Fatalf("%v k=%d: resume: %v", m, k, err)
			}
			if !reflect.DeepEqual(res.Tuples, clean.Tuples) {
				t.Errorf("%v k=%d: resumed spilling tuples differ from the clean run", m, k)
			}
			if res.Stats.OutputTuples != clean.Stats.OutputTuples {
				t.Errorf("%v k=%d: output count differs", m, k)
			}
			cs := res.Stats.Chain
			if cs == nil || cs.Jobs != int64(jobs) || cs.ResumedJobs == 0 && k > 0 {
				t.Errorf("%v k=%d: resume chain stats = %+v", m, k, cs)
			}
			assertNoScratch(t, fs, fmt.Sprintf("%v k=%d resumed", m, k))
		}
	}
}
