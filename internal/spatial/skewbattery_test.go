// The adaptive-partitioning equivalence battery lives in an external
// test package so it can drive the executor with the skewed workloads
// of internal/dataset (which itself imports spatial and therefore
// cannot appear in spatial's in-package tests).
package spatial_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/dfs"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

var batteryMethods = []spatial.Method{
	spatial.Cascade,
	spatial.AllReplicate,
	spatial.ControlledReplicate,
	spatial.ControlledReplicateLimit,
}

// skewedTriple builds the battery workload: three relations drawn from
// the same Zipf-clustered distribution and seed, so their hot clusters
// coincide and the chain query joins dense against dense — the shape
// that collapses a uniform grid onto a handful of reducers.
func skewedTriple(tb testing.TB, n int) []spatial.Relation {
	tb.Helper()
	rels := make([]spatial.Relation, 3)
	for i, name := range []string{"R1", "R2", "R3"} {
		rel, err := dataset.ZipfClusteredRelation(name, dataset.SkewedDefaults(n), 2013)
		if err != nil {
			tb.Fatal(err)
		}
		rels[i] = rel
	}
	return rels
}

func skewedChain() *query.Query {
	return query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
}

// joinRoundSkew is the headline metric: max/median shuffled pairs per
// reducer in the final (join) round.
func joinRoundSkew(res *spatial.Result) float64 {
	rounds := res.Stats.Rounds
	return rounds[len(rounds)-1].MaxMedianReducerSkew()
}

// TestAdaptiveUniformBitIdentical is the battery's core property: on
// the skewed workload, every method run under the adaptive partitioning
// produces exactly the same result tuples as under the uniform grid —
// and as brute force — across parallelism levels. Tuple order differs
// between partitionings (tuples are emitted per owning cell), so
// identity is over the canonical tuple set; per-method duplicate
// freedom pins the multiset.
func TestAdaptiveUniformBitIdentical(t *testing.T) {
	rels := skewedTriple(t, 300)
	q := skewedChain()
	ref, err := spatial.Execute(spatial.BruteForce, q, rels, spatial.Config{})
	if err != nil {
		t.Fatal(err)
	}
	refSet := ref.TupleSet()
	if len(refSet) == 0 {
		t.Fatal("skewed workload produced no tuples — battery is vacuous")
	}
	for _, m := range batteryMethods {
		for _, par := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%v/par=%d", m, par), func(t *testing.T) {
				uni, err := spatial.Execute(m, q, rels,
					spatial.Config{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				ada, err := spatial.Execute(m, q, rels,
					spatial.Config{Parallelism: par, Scheme: spatial.PartitionAdaptive})
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(ada.TupleSet())) != ada.Stats.OutputTuples {
					t.Errorf("adaptive run emitted duplicate tuples (%d unique of %d)",
						len(ada.TupleSet()), ada.Stats.OutputTuples)
				}
				if !reflect.DeepEqual(ada.TupleSet(), refSet) {
					t.Errorf("adaptive tuples differ from brute force (%d vs %d)",
						len(ada.TupleSet()), len(refSet))
				}
				if !reflect.DeepEqual(ada.TupleSet(), uni.TupleSet()) {
					t.Errorf("adaptive tuples differ from uniform grid (%d vs %d)",
						len(ada.TupleSet()), len(uni.TupleSet()))
				}
			})
		}
	}
}

// TestAdaptiveFaultInjectionBitIdentical re-runs the battery under
// map- and reduce-side fault injection: first attempts fail, retries
// must reconstruct the identical adaptive result (exact order — the
// configuration is fixed, so the run is deterministic).
func TestAdaptiveFaultInjectionBitIdentical(t *testing.T) {
	rels := skewedTriple(t, 200)
	q := skewedChain()
	for _, m := range batteryMethods {
		clean, err := spatial.Execute(m, q, rels,
			spatial.Config{Scheme: spatial.PartitionAdaptive})
		if err != nil {
			t.Fatal(err)
		}
		faulty, err := spatial.Execute(m, q, rels, spatial.Config{
			Scheme:      spatial.PartitionAdaptive,
			Parallelism: 4,
			MaxAttempts: 3,
			FailMap:     func(mapper, attempt int) bool { return attempt == 0 && mapper%2 == 0 },
			FailReduce:  func(reducer, attempt int) bool { return attempt == 0 && reducer%3 == 0 },
		})
		if err != nil {
			t.Fatalf("%v: faulty run: %v", m, err)
		}
		if !reflect.DeepEqual(faulty.Tuples, clean.Tuples) {
			t.Errorf("%v: fault-injected run changed the tuple sequence", m)
		}
		if faulty.Stats.OutputTuples != clean.Stats.OutputTuples {
			t.Errorf("%v: fault-injected run changed the output count", m)
		}
	}
}

// TestAdaptiveKillResumeEveryBoundary kills each method's chain before
// every job boundary and resumes it on the same FS, all under the
// adaptive partitioning: the resumed output must be bit-identical — in
// order — to an uninterrupted adaptive run, with per-round engine stats
// equal modulo wall times. (The adaptive grid is rebuilt on resume from
// the same deterministic sample, so checkpointed shuffle keys line up.)
func TestAdaptiveKillResumeEveryBoundary(t *testing.T) {
	rels := skewedTriple(t, 150)
	q := skewedChain()
	for _, m := range batteryMethods {
		cfg := spatial.Config{Scheme: spatial.PartitionAdaptive}
		clean, err := spatial.Execute(m, q, rels, cfg)
		if err != nil {
			t.Fatalf("%v: clean: %v", m, err)
		}
		if clean.Stats.Chain == nil {
			t.Fatalf("%v: no chain stats", m)
		}
		jobs := int(clean.Stats.Chain.Jobs)
		for k := 0; k < jobs; k++ {
			fs := dfs.New(0)
			killCfg := cfg
			killCfg.FS = fs
			killCfg.FailJob = func(i int) bool { return i == k }
			_, err := spatial.Execute(m, q, rels, killCfg)
			var killed *mapreduce.ChainKilledError
			if !errors.As(err, &killed) {
				t.Fatalf("%v k=%d: err = %v, want ChainKilledError", m, k, err)
			}
			resumeCfg := cfg
			resumeCfg.FS = fs
			resumeCfg.Resume = true
			res, err := spatial.Execute(m, q, rels, resumeCfg)
			if err != nil {
				t.Fatalf("%v k=%d: resume: %v", m, k, err)
			}
			if !reflect.DeepEqual(res.Tuples, clean.Tuples) {
				t.Errorf("%v k=%d: resumed tuples differ from clean adaptive run", m, k)
			}
			if res.Stats.Chain.ResumedJobs != int64(k) {
				t.Errorf("%v k=%d: resumed %d jobs", m, k, res.Stats.Chain.ResumedJobs)
			}
			if !reflect.DeepEqual(normalizeBattery(res.Stats.Rounds), normalizeBattery(clean.Stats.Rounds)) {
				t.Errorf("%v k=%d: resumed round stats differ from clean run", m, k)
			}
		}
	}
}

// normalizeBattery zeroes the wall-time fields, the only per-round
// stats allowed to differ between a clean and a resumed run.
func normalizeBattery(rounds []*mapreduce.Stats) []mapreduce.Stats {
	out := make([]mapreduce.Stats, len(rounds))
	for i, r := range rounds {
		out[i] = *r
		out[i].MapWall, out[i].ReduceWall, out[i].TotalWall = 0, 0, 0
	}
	return out
}

// TestAdaptiveSkewImprovement is the tier-1 scale of the headline
// claim: on the committed skewed workload the adaptive partitioning
// improves the join round's max/median reducer-pair skew by at least
// 5× over the uniform grid of the same cell budget, while the output
// count stays identical. (BENCHMARK.json's grid.reducer_skew tracks the
// adaptive side at benchmark scale.)
func TestAdaptiveSkewImprovement(t *testing.T) {
	rels := skewedTriple(t, 2000)
	q := skewedChain()
	cfgU := spatial.Config{CountOnly: true}
	cfgA := spatial.Config{CountOnly: true, Scheme: spatial.PartitionAdaptive}
	uni, err := spatial.Execute(spatial.ControlledReplicateLimit, q, rels, cfgU)
	if err != nil {
		t.Fatal(err)
	}
	ada, err := spatial.Execute(spatial.ControlledReplicateLimit, q, rels, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if uni.Stats.OutputTuples != ada.Stats.OutputTuples {
		t.Fatalf("output counts differ: uniform %d, adaptive %d",
			uni.Stats.OutputTuples, ada.Stats.OutputTuples)
	}
	us, as := joinRoundSkew(uni), joinRoundSkew(ada)
	t.Logf("join-round max/median reducer pairs: uniform %.1f, adaptive %.1f", us, as)
	if as*5 > us {
		t.Errorf("adaptive skew %.1f is not ≥5× better than uniform %.1f", as, us)
	}
}

// TestAdaptiveExplainPricesExecutedPlan: the Cells field of a
// prediction under the adaptive scheme matches the partitioning the
// execution actually runs on — EXPLAIN prices the plan that runs.
func TestAdaptiveExplainPricesExecutedPlan(t *testing.T) {
	rels := skewedTriple(t, 400)
	q := skewedChain()
	for _, scheme := range []spatial.PartitionScheme{spatial.PartitionUniform, spatial.PartitionAdaptive} {
		cfg := spatial.Config{Scheme: scheme}
		pred, err := spatial.Predict(spatial.ControlledReplicate, q, rels, cfg)
		if err != nil {
			t.Fatal(err)
		}
		part, err := spatial.BuildPartitioning(scheme, rels, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Cells != part.NumCells() {
			t.Errorf("%v: EXPLAIN priced %d cells, execution runs %d", scheme, pred.Cells, part.NumCells())
		}
	}
	// The two schemes must actually price different grids on this
	// workload, or the check above is vacuous.
	u, _ := spatial.BuildPartitioning(spatial.PartitionUniform, rels, 0, 0)
	a, _ := spatial.BuildPartitioning(spatial.PartitionAdaptive, rels, 0, 0)
	if reflect.DeepEqual(u, a) {
		t.Error("adaptive partitioning equals the uniform grid on a skewed workload")
	}
}
