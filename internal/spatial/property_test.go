package spatial

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"mwsjoin/internal/query"
	"mwsjoin/internal/trace"
)

// randomPropertyQuery draws a random connected chain query over nSlots
// slots, mixing ov and ra(d) predicates.
func randomPropertyQuery(rng *rand.Rand, slots []string) *query.Query {
	q := query.New(slots...)
	for i := 1; i < len(slots); i++ {
		if rng.IntN(2) == 0 {
			q.Overlap(i-1, i)
		} else {
			q.Range(i-1, i, 10+rng.Float64()*60)
		}
	}
	// Occasionally close a triangle for a cyclic join graph.
	if len(slots) >= 3 && rng.IntN(3) == 0 {
		q.Overlap(0, len(slots)-1)
	}
	return q
}

// TestPropertyMethodsMatchBruteForceUnderFaults is the randomized
// equivalence property of ISSUE: across ≥25 random workloads, Cascade,
// All-Replicate, C-Rep and C-Rep-L produce exactly the brute-force
// tuple set while tracing is enabled AND both map-side and reduce-side
// fault injection are active — observability and recovery must never
// change results.
func TestPropertyMethodsMatchBruteForceUnderFaults(t *testing.T) {
	const trials = 30
	rng := rand.New(rand.NewPCG(404, 2013))
	methods := []Method{Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit}
	for trial := 0; trial < trials; trial++ {
		nSlots := 2 + rng.IntN(2)
		n := 15 + rng.IntN(46)
		rels := randomRelations(rng, nSlots, n, 500, 50)
		selfJoin := rng.IntN(4) == 0
		var slots []string
		if selfJoin {
			// Bind one dataset to every slot (the paper's road triples).
			slots = []string{"a", "b", "c"}[:nSlots]
			for i := range rels {
				rels[i].Name = rels[0].Name
				rels[i].Items = rels[0].Items
			}
		} else {
			slots = make([]string, nSlots)
			for i, rel := range rels {
				slots[i] = rel.Name
			}
		}
		q := randomPropertyQuery(rng, slots)

		want, err := Execute(BruteForce, q, rels, Config{})
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, q, err)
		}

		cfg := Config{
			Tracer:      trace.New(),
			MaxAttempts: 3,
			FailMap:     func(mapper, attempt int) bool { return mapper == 0 && attempt == 1 },
			FailReduce:  func(reducer, attempt int) bool { return reducer%3 == 0 && attempt == 1 },
		}
		for _, m := range methods {
			res, err := Execute(m, q, rels, cfg)
			if err != nil {
				t.Fatalf("trial %d (%s) %v: %v", trial, q, m, err)
			}
			if !reflect.DeepEqual(res.TupleSet(), want.TupleSet()) {
				t.Errorf("trial %d (%s) %v: %d tuples under faults+tracing, brute force has %d",
					trial, q, m, len(res.TupleSet()), len(want.TupleSet()))
			}
			// The trace must have witnessed actual injected failures.
			var failures int64
			for _, st := range res.Stats.Rounds {
				failures += st.MapFailures + st.ReduceFailures
			}
			if failures == 0 {
				t.Errorf("trial %d (%s) %v: fault injection never fired", trial, q, m)
			}
		}
	}
}

// TestPropertyFaultCountersConsistent cross-checks the engine's retry
// accounting on one traced, fault-injected run: every round saw failures
// and succeeded after them, and its timeline holds one task span per
// attempt Stats counts (checkTimeline).
func TestPropertyFaultCountersConsistent(t *testing.T) {
	rng := rand.New(rand.NewPCG(405, 2013))
	rels := randomRelations(rng, 3, 60, 500, 50)
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 40)
	tr := trace.New()
	res, err := Execute(ControlledReplicate, q, rels, Config{
		Tracer:      tr,
		MaxAttempts: 4,
		NumMappers:  2,
		FailMap:     func(mapper, attempt int) bool { return attempt <= 1 && mapper == 0 },
		FailReduce:  func(reducer, attempt int) bool { return attempt <= 2 && reducer == 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	checkTimeline(t, "c-rep", tr.Spans(), &res.Stats)
	for i, st := range res.Stats.Rounds {
		if st.MapFailures == 0 {
			t.Errorf("round %d: no injected map failures", i)
		}
		if st.MapAttempts <= st.MapFailures {
			t.Errorf("round %d: %d map attempts vs %d failures — no attempt succeeded?", i, st.MapAttempts, st.MapFailures)
		}
		if st.ReduceAttempts <= st.ReduceFailures {
			t.Errorf("round %d: %d reduce attempts vs %d failures", i, st.ReduceAttempts, st.ReduceFailures)
		}
	}
}
