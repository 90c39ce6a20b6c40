package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mwsjoin"

	"mwsjoin/internal/spatial"
)

// setPlanGate installs the planning test gate with the mutex held.
func (s *Server) setPlanGate(g func(req SubmitRequest)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.planGate = g
}

// within fails the test if fn has not returned in ten seconds — a call
// that would wait for the server mutex behind a parked planner.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return while a submission was parked inside planning", what)
	}
}

// TestJobHistoryBounded: terminal jobs are kept for jobHistory finishes
// and then forgotten; a forgotten ID answers like one that never was.
func TestJobHistoryBounded(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	req := SubmitRequest{Query: "A ov B", Method: "2-way-cascade"}
	first := waitJob(t, s, submit(t, s, req).ID)
	if first.State != StateDone {
		t.Fatalf("first job: %s: %s", first.State, first.Error)
	}
	var last *JobStatus
	for i := 0; i < 1100; i++ {
		if last = submit(t, s, req); !last.Cached {
			t.Fatalf("submission %d missed the cache", i)
		}
	}
	s.mu.Lock()
	kept, listed := len(s.jobs), len(s.finished)
	s.mu.Unlock()
	if kept > jobHistory || listed != kept {
		t.Errorf("%d jobs kept, %d listed as finished, want at most %d and equal", kept, listed, jobHistory)
	}
	if len(s.Jobs()) != kept {
		t.Errorf("Jobs() lists %d jobs, %d are kept", len(s.Jobs()), kept)
	}

	h := httptest.NewServer(NewHandler(s, nil))
	defer h.Close()
	for _, path := range []string{"", "/result", "/profile", "/trace"} {
		for id, want := range map[string]int{first.ID: http.StatusNotFound, last.ID: http.StatusOK} {
			if path == "/profile" || path == "/trace" {
				if id == last.ID {
					want = http.StatusConflict // a cache hit has no profile
				}
			}
			resp, err := http.Get(h.URL + "/v1/jobs/" + id + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("GET /v1/jobs/%s%s = %d, want %d", id, path, resp.StatusCode, want)
			}
		}
	}
	if _, err := s.Cancel(first.ID); err != ErrNotFound {
		t.Errorf("Cancel of a forgotten job: %v, want ErrNotFound", err)
	}
}

// TestJobHistoryKeepsLiveJobs: only finished jobs age out — a job still
// running when a thousand others finish is there when it is done.
func TestJobHistoryKeepsLiveJobs(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	hot := SubmitRequest{Query: "A ov B", Method: "2-way-cascade"}
	waitJob(t, s, submit(t, s, hot).ID)

	release := make(chan struct{})
	var parked atomic.Value
	s.setGate(func(id string, step int, _ string) {
		if step == 0 && parked.CompareAndSwap(nil, id) {
			<-release
		}
	})
	slow := submit(t, s, SubmitRequest{Query: "B ov C", Method: "c-rep"})
	waitState(t, s, slow.ID, StateRunning)
	for i := 0; i < jobHistory+50; i++ {
		submit(t, s, hot)
	}
	close(release)
	if st := waitJob(t, s, slow.ID); st.State != StateDone {
		t.Fatalf("the long-running job ended %s: %s", st.State, st.Error)
	}
	if _, err := s.Result(slow.ID, 0, 10); err != nil {
		t.Errorf("result of the job that outlived %d finishes: %v", jobHistory+50, err)
	}
}

// TestSubmitPlansOutsideLock parks one "auto" submission inside
// planning: everything else the service does must go on without it.
func TestSubmitPlansOutsideLock(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	hot := SubmitRequest{Query: "A ov B", Method: "2-way-cascade"}
	done := waitJob(t, s, submit(t, s, hot).ID)

	var priced atomic.Int64
	parkedAt, release := make(chan struct{}), make(chan struct{})
	s.setPlanGate(func(req SubmitRequest) {
		priced.Add(1)
		if req.Method == "auto" {
			close(parkedAt)
			<-release
		}
	})
	auto := make(chan *JobStatus, 1)
	go func() {
		st, err := s.Submit(SubmitRequest{Query: "A ov B and B ov C", Method: "auto"})
		if err != nil {
			t.Errorf("parked submission: %v", err)
		}
		auto <- st
	}()
	<-parkedAt

	within(t, "a cache-hit Submit", func() {
		if st := submit(t, s, hot); !st.Cached {
			t.Errorf("hot resubmission was not served from the cache")
		}
	})
	if n := priced.Load(); n != 1 {
		t.Errorf("%d submissions reached pricing, want only the parked one: a pinned-method cache hit prices nothing", n)
	}
	within(t, "Status", func() {
		if _, err := s.Status(done.ID); err != nil {
			t.Error(err)
		}
	})
	within(t, "Result", func() {
		if _, err := s.Result(done.ID, 0, 10); err != nil {
			t.Error(err)
		}
	})
	within(t, "a pinned miss, submitted and run to completion", func() {
		if st := waitJob(t, s, submit(t, s, SubmitRequest{Query: "C ov D", Method: "c-rep-l"}).ID); st.State != StateDone {
			t.Errorf("pinned miss ended %s: %s", st.State, st.Error)
		}
	})
	within(t, "RegisterRelation", func() { s.RegisterRelation(testRelations(3)[3]) })

	close(release)
	if st := <-auto; st != nil {
		if st = waitJob(t, s, st.ID); st.State != StateDone || !st.Planned {
			t.Errorf("parked auto job: state %s planned %t: %s", st.State, st.Planned, st.Error)
		}
	}
}

// TestReplaceRelationWhilePlanning replaces a bound relation while a
// submission is parked between binding and admission. The submission
// must plan, key its cache entry and execute against one version of the
// data, and the old data's answer must never be served for the new.
func TestReplaceRelationWhilePlanning(t *testing.T) {
	const text = "A ov B and B ov C"
	for _, method := range []string{"auto", "c-rep-l"} {
		t.Run(method, func(t *testing.T) {
			s, _ := newTestServer(t, Config{Workers: 2})
			// The old data's answer is cached before the replacement.
			old := waitJob(t, s, submit(t, s, SubmitRequest{Query: text, Method: "2-way-cascade"}).ID)

			var once sync.Once
			parkedAt, release := make(chan struct{}), make(chan struct{})
			s.setPlanGate(func(SubmitRequest) {
				once.Do(func() {
					close(parkedAt)
					<-release
				})
			})
			got := make(chan *JobStatus, 1)
			go func() {
				st, err := s.Submit(SubmitRequest{Query: text, Method: method})
				if err != nil {
					t.Errorf("parked submission: %v", err)
				}
				got <- st
			}()
			<-parkedAt
			fresh := testRelations(2)[1] // a different B
			info := s.RegisterRelation(fresh)
			close(release)
			st := <-got
			if st == nil {
				return
			}
			st = waitJob(t, s, st.ID)
			if st.State != StateDone {
				t.Fatalf("job ended %s: %s", st.State, st.Error)
			}

			// One version, and — since the replacement landed before
			// admission — the new one: the answer is the new data's.
			q, _ := mwsjoin.ParseQuery(text)
			rels := testRelations(1)[:3]
			rels[1] = fresh
			want, err := mwsjoin.Run(q, rels, mwsjoin.BruteForce, nil)
			if err != nil {
				t.Fatal(err)
			}
			page, err := s.Result(st.ID, 0, MaxPageLimit)
			if err != nil {
				t.Fatal(err)
			}
			gotSet := map[string]bool{}
			for _, ids := range page.Tuples {
				gotSet[spatial.Tuple{IDs: ids}.Key()] = true
			}
			if !reflect.DeepEqual(gotSet, want.TupleSet()) {
				t.Errorf("job over a replaced relation returned %d tuples, the new data joins to %d (the old data to %d)",
					len(gotSet), len(want.TupleSet()), old.OutputTuples)
			}
			if st.Cached {
				t.Errorf("a submission bound to new data (fingerprint %s) was served from the cache", info.Fingerprint)
			}
			// Its cache entry is keyed by the new fingerprints: the same
			// query again is a hit with the same answer.
			again := submit(t, s, SubmitRequest{Query: text, Method: st.Method})
			if !again.Cached || again.OutputTuples != st.OutputTuples {
				t.Errorf("resubmission: cached %t with %d tuples, want a hit with %d", again.Cached, again.OutputTuples, st.OutputTuples)
			}
		})
	}
}

// TestConcurrentFirstPlans: submissions racing to be the first to plan
// over freshly registered relations all get the same plan.
func TestConcurrentFirstPlans(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, CacheBytes: -1})
	const n = 4
	sts := make([]*JobStatus, n)
	var wg sync.WaitGroup
	for i := range sts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := s.Submit(SubmitRequest{Query: "A ov B and B ra(20) C", Method: "auto"})
			if err != nil {
				t.Error(err)
				return
			}
			sts[i] = st
		}()
	}
	wg.Wait()
	for i, st := range sts {
		if st == nil {
			t.Fatal("a submission failed")
		}
		if st.Method != sts[0].Method || st.PlanCost != sts[0].PlanCost || st.PredictedPairs != sts[0].PredictedPairs {
			t.Errorf("submission %d planned %s at cost %v (%v pairs), submission 0 planned %s at cost %v (%v pairs)",
				i, st.Method, st.PlanCost, st.PredictedPairs, sts[0].Method, sts[0].PlanCost, sts[0].PredictedPairs)
		}
		if done := waitJob(t, s, st.ID); done.State != StateDone {
			t.Errorf("job %s ended %s: %s", done.ID, done.State, done.Error)
		}
	}
}
