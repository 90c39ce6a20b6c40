package spatial

import (
	"math/rand/v2"
	"testing"

	"mwsjoin/internal/query"
	"mwsjoin/internal/trace"
)

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
