package server

import (
	"math"
	"testing"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/spatial"
)

// TestSubmitAutoMethod drives an "auto" submission end to end: the
// planner resolves a concrete method at admission, the job is priced on
// the plan that actually runs (predicted rounds reconcile with the
// executed stats), results match an explicit-method submission, and the
// planner's pick is recorded in the job status and the slowlog.
func TestSubmitAutoMethod(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, CacheBytes: -1})

	req := SubmitRequest{Query: "A ov B and B ov C", Method: "auto"}
	st := waitJob(t, s, submit(t, s, req).ID)
	if st.State != StateDone {
		t.Fatalf("auto job: %s: %s", st.State, st.Error)
	}

	// The status must carry the planner's concrete pick, never "auto".
	if !st.Planned {
		t.Error("auto job not marked Planned")
	}
	if st.Method == "auto" {
		t.Error("auto job status still reports method \"auto\"")
	}
	if _, err := spatial.ParseMethod(st.Method); err != nil {
		t.Errorf("auto job method = %q, want a concrete method: %v", st.Method, err)
	}
	if math.IsNaN(st.PlanCost) || math.IsInf(st.PlanCost, 0) || st.PlanCost <= 0 {
		t.Errorf("plan cost = %v, want finite positive", st.PlanCost)
	}
	if math.IsNaN(st.PredictedPairs) || math.IsInf(st.PredictedPairs, 0) || st.PredictedPairs < 0 {
		t.Errorf("admission cost = %v, want finite non-negative", st.PredictedPairs)
	}

	// Reconcile the priced plan against the executed stats: the plan the
	// admission charged is the plan that ran, so the predicted chain
	// length and the method must match the execution exactly.
	if st.Stats == nil {
		t.Fatal("done job has no stats")
	}
	if st.PredictedRounds != len(st.Stats.Rounds) {
		t.Errorf("predicted %d rounds, executed %d — admission priced a different plan than ran",
			st.PredictedRounds, len(st.Stats.Rounds))
	}
	if got := st.Stats.Method.String(); got != st.Method {
		t.Errorf("executed method %q != planned method %q", got, st.Method)
	}

	// The answer is method-independent: an explicit brute-force
	// submission must return the same tuples.
	oracle := waitJob(t, s, submit(t, s, SubmitRequest{Query: req.Query, Method: "brute-force"}).ID)
	if oracle.State != StateDone {
		t.Fatalf("oracle job: %s: %s", oracle.State, oracle.Error)
	}
	if st.OutputTuples != oracle.OutputTuples {
		t.Errorf("auto job tuples = %d, brute force = %d", st.OutputTuples, oracle.OutputTuples)
	}

	// Planning is deterministic: resubmitting picks the identical plan.
	again := waitJob(t, s, submit(t, s, req).ID)
	if again.Method != st.Method || again.PlanCost != st.PlanCost {
		t.Errorf("resubmission chose %s (cost %v), first run chose %s (cost %v)",
			again.Method, again.PlanCost, st.Method, st.PlanCost)
	}

	// The slowlog marks planned entries.
	var found bool
	for _, e := range s.Slowlog() {
		if e.ID == st.ID {
			found = true
			if !e.Planned {
				t.Error("slowlog entry for auto job not marked planned")
			}
			if e.Method != st.Method {
				t.Errorf("slowlog method %q != job method %q", e.Method, st.Method)
			}
		}
	}
	if !found {
		t.Error("auto job missing from slowlog")
	}
}

// oddGrid is a service grid the old planner space never held: adaptive,
// and a cell target that is not a perfect square.
var oddGrid = Config{Workers: 1, CacheBytes: -1, Partition: spatial.PartitionAdaptive, Reducers: 7}

// TestAutoAndPinnedShareConfiguredGrid: an "auto" job and a pinned one
// over the same relations are priced and run on one and the same
// *grid.Partitioning — the service's configured grid, which is also the
// relation set's BuildPartitioning answer.
func TestAutoAndPinnedShareConfiguredGrid(t *testing.T) {
	s, _ := newTestServer(t, oddGrid)
	query := "A ov B and B ra(40) C"
	auto := waitJob(t, s, submit(t, s, SubmitRequest{Query: query, Method: "auto"}).ID)
	pinned := waitJob(t, s, submit(t, s, SubmitRequest{Query: query, Method: "all-replicate"}).ID)
	if auto.State != StateDone || pinned.State != StateDone {
		t.Fatalf("auto %s (%s), pinned %s (%s)", auto.State, auto.Error, pinned.State, pinned.Error)
	}
	s.mu.Lock()
	autoPart, pinnedPart := s.jobs[auto.ID].part, s.jobs[pinned.ID].part
	rels := []spatial.Relation{s.rels["A"].rel, s.rels["B"].rel, s.rels["C"].rel}
	s.mu.Unlock()
	want, err := spatial.BuildPartitioning(oddGrid.Partition, rels, oddGrid.Reducers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if autoPart != want || pinnedPart != want {
		t.Errorf("auto ran on %v, pinned on %v, the configured grid is %v", autoPart, pinnedPart, want)
	}
	for _, st := range []*JobStatus{auto, pinned} {
		if got := len(st.Stats.Rounds[0].PairsPerReducer); got != want.NumCells() {
			t.Errorf("%s job ran on %d cells, configured grid has %d", st.Method, got, want.NumCells())
		}
	}
}

// TestPinnedPricingIsSanitized: degenerate relations — an empty one,
// and stacks of one rectangle that every pair overlaps — cannot push a
// pinned job's admission cost outside the finite range every consumer
// of a prediction is promised, any more than a planned one's.
func TestPinnedPricingIsSanitized(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, CacheBytes: -1})
	stack := make([]geom.Rect, 30)
	for i := range stack {
		stack[i] = geom.Rect{X: 100, Y: 100, L: 50, B: 50}
	}
	s.RegisterRelation(spatial.NewRelation("E", nil))
	for _, name := range []string{"I", "J", "K"} {
		s.RegisterRelation(spatial.NewRelation(name, stack))
	}
	for _, query := range []string{"A ov E and E ov B", "I ov J and J ov K"} {
		for _, method := range []string{"c-rep-l", "auto"} {
			st := submit(t, s, SubmitRequest{Query: query, Method: method})
			if p := st.PredictedPairs; math.IsNaN(p) || p < 0 || p > 1e30 {
				t.Errorf("%s/%s: predicted_pairs = %v, want within [0, 1e30]", query, method, p)
			}
			if done := waitJob(t, s, st.ID); done.State != StateDone {
				t.Errorf("%s/%s: %s: %s", query, method, done.State, done.Error)
			}
		}
	}
}
