package spatial_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/dfs"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
	"mwsjoin/internal/trace"
)

// TestClusterReduceBalance logs, for every round of a two- and a
// three-worker run, the largest worker's reduce input beside ⌈total/W⌉
// plus the heaviest grid column's, and its ratio to the mean worker's,
// on cluster_w2's relations and query (Cascade, a uniform grid) and on a
// crepl_zipf-shaped run (C-Rep-L, an adaptive grid over Zipf-clustered
// rectangles). A job places each cell on the worker whose block of
// columns holds it, the blocks balanced by the records each column
// holds, so the bound holds wherever a column's pairs follow its
// records, and the test fails a round that exceeds it. A mark round
// emits only the rectangles of its mark band, which a column's records
// do not weigh, so its balance is logged, not held: on the Zipf draw at
// W = 3 its largest worker reduces 6,850 of 10,507 pairs, above the
// bound's 6,431. Which reducers a worker ran comes from its trace's
// reduce task spans, their inputs from the round's PairsPerReducer.
func TestClusterReduceBalance(t *testing.T) {
	uniform := func() []spatial.Relation {
		const n = 50000
		p := dataset.PaperDefaults(n)
		side := 100_000 * math.Sqrt(float64(n)/1e6)
		p.XMax, p.YMax = side, side
		rels := make([]spatial.Relation, 3)
		for i, name := range []string{"R1", "R2", "R3"} {
			rel, err := dataset.SyntheticRelation(name, p, uint64(2013+101*(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			rels[i] = rel
		}
		return rels
	}
	for _, c := range []struct {
		name   string
		method spatial.Method
		q      *query.Query
		rels   []spatial.Relation
		cfg    spatial.Config
	}{
		{"cluster_w2", spatial.Cascade, query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2), uniform(),
			spatial.Config{Reducers: 64, NumMappers: 8, Parallelism: 1}},
		{"crepl_zipf", spatial.ControlledReplicateLimit, query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 5), goldenZipf(t, []string{"R1", "R2", "R3"}, 90000, 2013),
			spatial.Config{Scheme: spatial.PartitionAdaptive, Reducers: 64, Parallelism: 2, NumMappers: 8}},
	} {
		cols, err := spatial.GridCols(c.q, c.rels, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3} {
			rounds, ran := runTraced(t, w, c.method, c.q, c.rels, c.cfg)
			for i, st := range rounds {
				var total, heaviest int64
				col := make([]int64, cols)
				for r, n := range st.PairsPerReducer {
					total += n
					col[r%cols] += n
				}
				for _, n := range col {
					heaviest = max(heaviest, n)
				}
				held := make([]int64, w)
				for self := range held {
					for _, r := range ran[self][i] {
						held[self] += st.PairsPerReducer[r]
					}
				}
				var largest int64
				for _, n := range held {
					largest = max(largest, n)
				}
				bound := (total+int64(w)-1)/int64(w) + heaviest
				t.Logf("%s W=%d round %d (%s): workers' reduce inputs %v of %d pairs, largest %d, bound ⌈total/W⌉ + heaviest column %d, largest/mean %.3f",
					c.name, w, i+1, st.Job, held, total, largest, bound, float64(largest)*float64(w)/float64(max(total, 1)))
				if largest > bound && !strings.HasSuffix(st.Job, "-mark") {
					t.Errorf("%s W=%d round %d: the largest worker reduces %d pairs, above %d", c.name, w, i+1, largest, bound)
				}
			}
		}
	}
}

// runTraced runs the query on w in-process workers, each traced, and
// returns worker 0's rounds and, by worker and round, the reducers the
// worker ran.
func runTraced(t *testing.T, w int, method spatial.Method, q *query.Query, rels []spatial.Relation, cfg spatial.Config) ([]*mapreduce.Stats, [][][]int) {
	t.Helper()
	ex := spatial.DistExchangers(w)
	results := make([]*spatial.Result, w)
	errs := make([]error, w)
	tracers := make([]*trace.Tracer, w)
	var wg sync.WaitGroup
	for self := range w {
		tracers[self] = trace.New()
		wg.Add(1)
		go func() {
			defer wg.Done()
			wcfg := cfg
			wcfg.FS = dfs.New(0)
			wcfg.Tracer = tracers[self]
			wcfg.Dist = &mapreduce.DistConfig{NumWorkers: w, Self: self, Exchanger: ex[self]}
			results[self], errs[self] = spatial.Execute(method, q, rels, wcfg)
		}()
	}
	wg.Wait()
	ran := make([][][]int, w)
	for self, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", self, err)
		}
		ran[self] = reducersRan(tracers[self].Spans())
		if len(ran[self]) != len(results[0].Stats.Rounds) {
			t.Fatalf("worker %d traced %d jobs, ran %d rounds", self, len(ran[self]), len(results[0].Stats.Rounds))
		}
	}
	return results[0].Stats.Rounds, ran
}

// reducersRan lists, by job in trace order, the reducers whose first
// attempt a worker's trace records.
func reducersRan(spans []trace.Span) [][]int {
	job := map[trace.SpanID]int{}   // a job span's index
	phase := map[trace.SpanID]int{} // a reduce phase's job index
	var ran [][]int
	for _, s := range spans {
		switch s.Kind {
		case trace.KindJob:
			job[s.ID] = len(ran)
			ran = append(ran, nil)
		case trace.KindPhase:
			if j, ok := job[s.Parent]; ok && s.Name == "reduce" {
				phase[s.ID] = j
			}
		case trace.KindTask:
			var r, attempt int
			if j, ok := phase[s.Parent]; ok {
				if _, err := fmt.Sscanf(s.Name, "reduce-%d#%d", &r, &attempt); err == nil && attempt == 1 {
					ran[j] = append(ran[j], r)
				}
			}
		}
	}
	return ran
}
