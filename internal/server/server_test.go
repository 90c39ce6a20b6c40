package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mwsjoin"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/metrics"
	"mwsjoin/internal/spatial"
)

const (
	testReducers    = 16
	testParallelism = 4
)

// testRelations builds deterministic random relations dense enough for
// every query of the suite to produce output.
func testRelations(seed uint64) []spatial.Relation {
	rng := rand.New(rand.NewPCG(seed, 2013))
	names := []string{"A", "B", "C", "D"}
	rels := make([]spatial.Relation, len(names))
	for i, name := range names {
		rects := make([]geom.Rect, 150)
		for j := range rects {
			rects[j] = geom.Rect{
				X: rng.Float64() * 800,
				Y: rng.Float64() * 800,
				L: rng.Float64() * 60,
				B: rng.Float64() * 60,
			}
		}
		rels[i] = spatial.NewRelation(name, rects)
	}
	return rels
}

func newTestServer(t *testing.T, cfg Config) (*Server, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	if cfg.Metrics == nil {
		cfg.Metrics = reg
	} else {
		reg = cfg.Metrics
	}
	if cfg.Reducers == 0 {
		cfg.Reducers = testReducers
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = testParallelism
	}
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx) //nolint:errcheck // best-effort cleanup
	})
	for _, rel := range testRelations(1) {
		s.RegisterRelation(rel)
	}
	return s, reg
}

func submit(t *testing.T, s *Server, req SubmitRequest) *JobStatus {
	t.Helper()
	st, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit(%q): %v", req.Query, err)
	}
	return st
}

// waitState polls until the job reaches the wanted state — used to
// order submissions against worker claims in scheduling tests.
func waitState(t *testing.T, s *Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitJob(t *testing.T, s *Server, id string) *JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return st
}

// normStats deep-copies the stats with wall times zeroed, so the
// deterministic counters can be compared bit-for-bit across runs that
// differ only in real-time scheduling.
func normStats(s spatial.Stats) spatial.Stats {
	out := s
	out.Wall = 0
	out.Rounds = make([]*mapreduce.Stats, len(s.Rounds))
	for i, r := range s.Rounds {
		cp := *r
		cp.MapWall, cp.ReduceWall, cp.TotalWall = 0, 0, 0
		cp.PairsPerReducer = append([]int64(nil), r.PairsPerReducer...)
		out.Rounds[i] = &cp
	}
	if s.Chain != nil {
		cp := *s.Chain
		out.Chain = &cp
	}
	return out
}

func statsEqual(t *testing.T, label string, got, want spatial.Stats) {
	t.Helper()
	g, w := normStats(got), normStats(want)
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: stats diverge from serial run:\n got: %+v\nwant: %+v", label, g, w)
		for i := range g.Rounds {
			if i < len(w.Rounds) && !reflect.DeepEqual(g.Rounds[i], w.Rounds[i]) {
				t.Errorf("%s: round %d:\n got: %+v\nwant: %+v", label, i, *g.Rounds[i], *w.Rounds[i])
			}
		}
	}
}

// serialRun executes the same query through the public Options API —
// the reference every service execution must match bit-for-bit.
func serialRun(t *testing.T, queryTxt, method string) *spatial.Result {
	t.Helper()
	q, err := mwsjoin.ParseQuery(queryTxt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mwsjoin.ParseMethod(method)
	if err != nil {
		t.Fatal(err)
	}
	all := testRelations(1)
	byName := map[string]spatial.Relation{}
	for _, rel := range all {
		byName[rel.Name] = rel
	}
	rels := make([]spatial.Relation, q.NumSlots())
	for i, slot := range q.Slots() {
		rels[i] = byName[slot]
	}
	res, err := mwsjoin.Run(q, rels, m, &mwsjoin.Options{Reducers: testReducers, Parallelism: testParallelism})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// setGate installs the chain-step test gate with the mutex held, so the
// write is ordered against the worker goroutines' reads.
func (s *Server) setGate(g func(jobID string, step int, name string)) {
	s.mu.Lock()
	s.stepGate = g
	s.mu.Unlock()
}

// TestConcurrentSubmissionsMatchSerial is the scheduler equivalence
// property: N queries submitted concurrently produce, per job, results
// and Stats bit-identical to running each query alone through the
// public Options API. The cache is disabled so every job executes.
func TestConcurrentSubmissionsMatchSerial(t *testing.T) {
	cases := []struct{ query, method string }{
		{"A ov B and B ov C", "c-rep-l"},
		{"A ov B and B ov C", "c-rep"},
		{"A ov B and B ov C", "2-way-cascade"},
		{"A ov B", "all-replicate"},
		{"A ov B and B ra(40) C", "c-rep-l"},
		{"A ov B and B ov C and C ov D", "2-way-cascade"},
		{"A ra(25) C", "c-rep"},
		{"B ov D", "2-way-cascade"},
	}
	s, _ := newTestServer(t, Config{Workers: 4, CacheBytes: -1})

	ids := make([]string, len(cases))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var submitErr error
	for i, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := s.Submit(SubmitRequest{Query: tc.query, Method: tc.method})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				submitErr = err
				return
			}
			ids[i] = st.ID
		}()
	}
	wg.Wait()
	if submitErr != nil {
		t.Fatal(submitErr)
	}

	for i, tc := range cases {
		label := fmt.Sprintf("%s via %s", tc.query, tc.method)
		st := waitJob(t, s, ids[i])
		if st.State != StateDone {
			t.Fatalf("%s: state %s, error %q", label, st.State, st.Error)
		}
		want := serialRun(t, tc.query, tc.method)
		if st.OutputTuples != want.Stats.OutputTuples {
			t.Errorf("%s: %d tuples, serial run produced %d", label, st.OutputTuples, want.Stats.OutputTuples)
		}
		statsEqual(t, label, *st.Stats, want.Stats)

		// And the concrete tuples must agree, fetched through pagination.
		got := map[string]bool{}
		for off := 0; ; {
			page, err := s.Result(ids[i], off, 97)
			if err != nil {
				t.Fatal(err)
			}
			for _, tu := range page.Tuples {
				got[spatial.Tuple{IDs: tu}.Key()] = true
			}
			if page.NextOffset == nil {
				break
			}
			off = *page.NextOffset
		}
		want2 := want.TupleSet()
		if len(got) != len(want2) {
			t.Fatalf("%s: paginated %d distinct tuples, want %d", label, len(got), len(want2))
		}
		for k := range want2 {
			if !got[k] {
				t.Fatalf("%s: tuple missing from paginated result", label)
			}
		}
	}
}

// TestCacheHit checks a repeated submission is served from the result
// cache: hit counters move and no new map-reduce work runs.
func TestCacheHit(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 2})
	req := SubmitRequest{Query: "A ov B and B ov C", Method: "c-rep-l"}
	first := submit(t, s, req)
	if first.Cached {
		t.Fatal("first submission claims to be cached")
	}
	st := waitJob(t, s, first.ID)
	if st.State != StateDone {
		t.Fatalf("first job: %s (%s)", st.State, st.Error)
	}
	runs := reg.Counter("spatial_runs_total").Value()
	if runs != 1 {
		t.Fatalf("spatial_runs_total = %d after one job", runs)
	}

	second := submit(t, s, req)
	if !second.Cached || second.State != StateDone {
		t.Fatalf("second submission not served from cache: %+v", second)
	}
	if second.ID == first.ID {
		t.Fatal("cache hit reused the first job's ID")
	}
	if second.OutputTuples != st.OutputTuples {
		t.Fatalf("cached job reports %d tuples, original %d", second.OutputTuples, st.OutputTuples)
	}
	if hits := reg.Counter("server_cache_hits_total").Value(); hits != 1 {
		t.Fatalf("server_cache_hits_total = %d, want 1", hits)
	}
	if runs := reg.Counter("spatial_runs_total").Value(); runs != 1 {
		t.Fatalf("cache hit ran %d new executions", runs-1)
	}
	// The cached job serves results too.
	page, err := s.Result(second.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(page.Total) != st.OutputTuples {
		t.Fatalf("cached result total %d, want %d", page.Total, st.OutputTuples)
	}
	// A different method is a different cache key.
	third := submit(t, s, SubmitRequest{Query: req.Query, Method: "c-rep"})
	if third.Cached {
		t.Fatal("different method hit the cache")
	}
	waitJob(t, s, third.ID)
}

// TestCacheStaleFingerprint re-registers a relation with different data
// and checks the old cached result is unreachable: the fingerprint in
// the key changed.
func TestCacheStaleFingerprint(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1})
	req := SubmitRequest{Query: "A ov B", Method: "2-way-cascade"}
	first := waitJob(t, s, submit(t, s, req).ID)

	// Same data re-registered (even under a fresh Relation value) still
	// hits: the fingerprint is content-based.
	s.RegisterRelation(testRelations(1)[0])
	if st := submit(t, s, req); !st.Cached {
		t.Fatal("re-registering identical data invalidated the cache")
	}

	// Different data must miss and recompute.
	s.RegisterRelation(spatial.Relation{Name: "A", Items: testRelations(7)[0].Items})
	st := submit(t, s, req)
	if st.Cached {
		t.Fatal("cache served a result computed from replaced data")
	}
	st = waitJob(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("recompute failed: %s (%s)", st.State, st.Error)
	}
	if st.OutputTuples == first.OutputTuples {
		t.Logf("note: old and new data coincidentally produce equal tuple counts (%d)", st.OutputTuples)
	}
	if hits := reg.Counter("server_cache_hits_total").Value(); hits != 1 {
		t.Fatalf("server_cache_hits_total = %d, want exactly the identical-data hit", hits)
	}
}

// TestCancelQueued cancels a job before a worker picks it up: it must
// finalise immediately, never run, and leave the cache untouched.
func TestCancelQueued(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	s.setGate(func(id string, step int, _ string) {
		if id == "j000001" && step == 0 {
			<-release
		}
	})
	blocker := submit(t, s, SubmitRequest{Query: "A ov B and B ov C", Method: "c-rep-l"})
	// The queue orders equal priorities by predicted cost, so the cheaper
	// victim would overtake a blocker the worker has not claimed yet.
	waitState(t, s, blocker.ID, StateRunning)
	victim := submit(t, s, SubmitRequest{Query: "A ov B", Method: "2-way-cascade"})

	st, err := s.Cancel(victim.ID)
	if err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	if st.State != StateCancelled {
		t.Fatalf("cancelled queued job in state %s", st.State)
	}
	// Idempotent.
	if _, err := s.Cancel(victim.ID); err != nil {
		t.Fatalf("second Cancel: %v", err)
	}
	// Wait must return instantly for a finalised job.
	if st := waitJob(t, s, victim.ID); st.State != StateCancelled || st.Stats != nil {
		t.Fatalf("victim final status: %+v", st)
	}

	close(release)
	if st := waitJob(t, s, blocker.ID); st.State != StateDone {
		t.Fatalf("blocker: %s (%s)", st.State, st.Error)
	}
	if runs := reg.Counter("spatial_runs_total").Value(); runs != 1 {
		t.Fatalf("cancelled queued job still executed (%d runs)", runs)
	}
	if _, err := s.Cancel(blocker.ID); !errors.Is(err, ErrJobFinished) {
		t.Fatalf("Cancel(done job) = %v, want ErrJobFinished", err)
	}
	if n := reg.Counter("server_jobs_cancelled_total").Value(); n != 1 {
		t.Fatalf("server_jobs_cancelled_total = %d", n)
	}
}

// TestCancelAtEveryChainBoundary exercises the running-job cancellation
// property at every chain-step boundary of a multi-round method: the
// job stops within the step it was cancelled at, no later step begins,
// the cache stays untouched, no goroutine leaks, and a subsequent job
// on the same server still matches the serial reference bit-for-bit.
func TestCancelAtEveryChainBoundary(t *testing.T) {
	cases := []struct {
		query, method string
		steps         int
	}{
		{"A ov B and B ov C and C ov D", "2-way-cascade", 3},
		{"A ov B and B ov C", "c-rep", 2},
		{"A ov B", "all-replicate", 1},
	}
	before := runtime.NumGoroutine()
	for _, tc := range cases {
		for k := 0; k < tc.steps; k++ {
			t.Run(fmt.Sprintf("%s-boundary-%d", tc.method, k), func(t *testing.T) {
				s, reg := newTestServer(t, Config{Workers: 1})
				s.setGate(func(id string, step int, _ string) {
					if step == k {
						s.Cancel(id) //nolint:errcheck // the job may already be terminal
					}
				})
				st := waitJob(t, s, submit(t, s, SubmitRequest{Query: tc.query, Method: tc.method}).ID)
				if st.State != StateCancelled {
					t.Fatalf("state %s (error %q), want cancelled", st.State, st.Error)
				}
				if !strings.Contains(st.Error, "cancel") {
					t.Errorf("error %q does not identify the cancellation", st.Error)
				}
				if st.StepsDone != k {
					t.Errorf("StepsDone = %d after cancelling at boundary %d", st.StepsDone, k)
				}
				if st.Stats != nil {
					t.Error("cancelled job carries Stats")
				}
				s.mu.Lock()
				cached := s.cache.order.Len()
				s.mu.Unlock()
				if cached != 0 {
					t.Errorf("cancelled job left %d cache entries", cached)
				}

				// The surviving workload on the same server must be exact:
				// cancellation charged nothing to shared accounting.
				s.setGate(nil)
				survivor := waitJob(t, s, submit(t, s, SubmitRequest{Query: tc.query, Method: tc.method}).ID)
				if survivor.State != StateDone {
					t.Fatalf("survivor: %s (%s)", survivor.State, survivor.Error)
				}
				want := serialRun(t, tc.query, tc.method)
				statsEqual(t, "survivor", *survivor.Stats, want.Stats)
				if n := reg.Counter("server_jobs_cancelled_total").Value(); n != 1 {
					t.Errorf("server_jobs_cancelled_total = %d", n)
				}

				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := s.Close(ctx); err != nil {
					t.Fatalf("drain after cancellations: %v", err)
				}
			})
		}
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines fails the test if the goroutine count does not
// settle back to the baseline — the no-leaked-goroutines check of the
// cancellation property.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d at start, %d after cancellations\n%s",
				baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionControl fills the bounded queue and checks the
// structured rejection plus its counter.
func TestAdmissionControl(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1, QueueLimit: 2, CacheBytes: -1})
	release := make(chan struct{})
	s.setGate(func(id string, step int, _ string) {
		if id == "j000001" && step == 0 {
			<-release
		}
	})
	req := SubmitRequest{Query: "A ov B", Method: "2-way-cascade"}
	running := submit(t, s, req)
	waitState(t, s, running.ID, StateRunning)
	q1 := submit(t, s, req)
	q2 := submit(t, s, req)

	_, err := s.Submit(req)
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("Submit over the queue limit = %v, want *AdmissionError", err)
	}
	if adm.QueueDepth != 2 || adm.QueueLimit != 2 {
		t.Fatalf("AdmissionError = %+v", adm)
	}
	if n := reg.Counter("server_admission_rejections_total").Value(); n != 1 {
		t.Fatalf("server_admission_rejections_total = %d", n)
	}
	if d := reg.Gauge("server_queue_depth").Value(); d != 2 {
		t.Fatalf("server_queue_depth = %d", d)
	}

	close(release)
	for _, id := range []string{running.ID, q1.ID, q2.ID} {
		if st := waitJob(t, s, id); st.State != StateDone {
			t.Fatalf("%s: %s (%s)", id, st.State, st.Error)
		}
	}
	// Queue drained: admission is open again.
	if _, err := s.Submit(req); err != nil {
		t.Fatalf("Submit after drain: %v", err)
	}
}

// TestPriorityOrder checks queued jobs start in (priority desc,
// submission order) sequence once a worker frees up.
func TestPriorityOrder(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, CacheBytes: -1})
	release := make(chan struct{})
	var mu sync.Mutex
	var started []string
	s.setGate(func(id string, step int, _ string) {
		if step != 0 {
			return
		}
		mu.Lock()
		started = append(started, id)
		mu.Unlock()
		if id == "j000001" {
			<-release
		}
	})
	req := func(pri int) SubmitRequest {
		return SubmitRequest{Query: "A ov B", Method: "2-way-cascade", Priority: pri}
	}
	blocker := submit(t, s, req(0)) // j000001, runs first and blocks
	waitState(t, s, blocker.ID, StateRunning)
	low := submit(t, s, req(1))  // j000002
	high := submit(t, s, req(5)) // j000003
	mid := submit(t, s, req(3))  // j000004
	close(release)
	for _, id := range []string{blocker.ID, low.ID, high.ID, mid.ID} {
		waitJob(t, s, id)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{blocker.ID, high.ID, mid.ID, low.ID}
	if fmt.Sprint(started) != fmt.Sprint(want) {
		t.Fatalf("start order %v, want %v", started, want)
	}
}

// TestCostBudget checks the in-flight cost budget holds back the queue
// head while an expensive job runs, without wedging the queue.
func TestCostBudget(t *testing.T) {
	// Find the predicted cost of the probe query first.
	probe, _ := newTestServer(t, Config{Workers: 1, CacheBytes: -1})
	cost := submit(t, probe, SubmitRequest{Query: "A ov B", Method: "2-way-cascade"}).PredictedPairs
	if cost <= 0 {
		t.Fatalf("probe predicted cost %v", cost)
	}

	s, _ := newTestServer(t, Config{Workers: 2, CacheBytes: -1, CostBudget: cost * 1.5})
	release := make(chan struct{})
	s.setGate(func(id string, step int, _ string) {
		if id == "j000001" && step == 0 {
			<-release
		}
	})
	req := SubmitRequest{Query: "A ov B", Method: "2-way-cascade"}
	first := submit(t, s, req)
	second := submit(t, s, req)

	// Two of these don't fit the budget together: the second must stay
	// queued while the first runs, despite the idle second worker.
	time.Sleep(100 * time.Millisecond)
	st, err := s.Status(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Fatalf("second job state %s while budget is exhausted, want queued", st.State)
	}
	close(release)
	if st := waitJob(t, s, first.ID); st.State != StateDone {
		t.Fatalf("first: %s (%s)", st.State, st.Error)
	}
	if st := waitJob(t, s, second.ID); st.State != StateDone {
		t.Fatalf("second: %s (%s)", st.State, st.Error)
	}
}

// TestCloseDrain checks graceful shutdown: a clean drain returns nil,
// a deadline drain cancels the stragglers and reports it, and
// submissions during/after the drain are rejected.
func TestCloseDrain(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	s.setGate(func(id string, step int, _ string) {
		if id == "j000001" && step == 0 {
			<-release
		}
	})
	running := submit(t, s, SubmitRequest{Query: "A ov B and B ov C", Method: "c-rep-l"})
	waitState(t, s, running.ID, StateRunning)
	queued := submit(t, s, SubmitRequest{Query: "A ov B", Method: "2-way-cascade"})

	time.AfterFunc(300*time.Millisecond, func() { close(release) })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Close(ctx)
	if err == nil {
		t.Fatal("Close met its deadline despite a gated running job")
	}
	if st, _ := s.Status(running.ID); st.State != StateCancelled {
		t.Fatalf("running job after deadline drain: %s (%s)", st.State, st.Error)
	}
	if st, _ := s.Status(queued.ID); st.State != StateCancelled {
		t.Fatalf("queued job after drain: %s", st.State)
	}
	if _, err := s.Submit(SubmitRequest{Query: "A ov B", Method: "2-way-cascade"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}

	// A clean drain on an idle server: immediate nil.
	idle, _ := newTestServer(t, Config{Workers: 2})
	st := waitJob(t, idle, submit(t, idle, SubmitRequest{Query: "A ov B", Method: "2-way-cascade"}).ID)
	if st.State != StateDone {
		t.Fatalf("idle-drain job: %s", st.State)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := idle.Close(ctx2); err != nil {
		t.Fatalf("clean Close: %v", err)
	}
}

// TestInspectionErrors covers the not-found and state-conflict paths of
// the inspection API.
func TestInspectionErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	if _, err := s.Status("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Status(unknown) = %v", err)
	}
	if _, err := s.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel(unknown) = %v", err)
	}
	if _, err := s.Result("nope", 0, 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("Result(unknown) = %v", err)
	}
	if _, err := s.Submit(SubmitRequest{Query: "A ov Zed"}); err == nil {
		t.Error("Submit with unknown relation succeeded")
	} else {
		var ur *UnknownRelationError
		if !errors.As(err, &ur) || ur.Slot != "Zed" {
			t.Errorf("Submit(unknown relation) = %v", err)
		}
	}
	if _, err := s.Submit(SubmitRequest{Query: "A ov B", Method: "vaporware"}); err == nil {
		t.Error("Submit with unknown method succeeded")
	}
	if _, err := s.Submit(SubmitRequest{Query: "not a query"}); err == nil {
		t.Error("Submit with a malformed query succeeded")
	}

	release := make(chan struct{})
	s.setGate(func(id string, step int, _ string) {
		if id == "j000001" && step == 0 {
			<-release
		}
	})
	st := submit(t, s, SubmitRequest{Query: "A ov B", Method: "2-way-cascade"})
	if _, err := s.Result(st.ID, 0, 0); !errors.Is(err, ErrJobNotDone) {
		t.Errorf("Result(running) = %v, want ErrJobNotDone", err)
	}
	close(release)
	waitJob(t, s, st.ID)
}

// TestRelationsListing checks the registry listing and its fingerprints
// round-trip through the public fingerprint helper.
func TestRelationsListing(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	infos := s.Relations()
	if len(infos) != 4 {
		t.Fatalf("Relations() returned %d entries", len(infos))
	}
	for i, rel := range testRelations(1) {
		if infos[i].Name != rel.Name {
			t.Fatalf("relation order %v", infos)
		}
		want := fmt.Sprintf("%016x", mwsjoin.RelationFingerprint(rel))
		if infos[i].Fingerprint != want {
			t.Errorf("%s fingerprint %s, want %s", rel.Name, infos[i].Fingerprint, want)
		}
		if infos[i].Records != len(rel.Items) {
			t.Errorf("%s records %d, want %d", rel.Name, infos[i].Records, len(rel.Items))
		}
	}
}
