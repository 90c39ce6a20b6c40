package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mwsjoin/internal/cluster"
	"mwsjoin/internal/metrics"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// startTestCoordinator brings up a coordinator plus n in-process
// workers on loopback for server-dispatch tests.
func startTestCoordinator(t *testing.T, n int, reg *metrics.Registry) *cluster.Coordinator {
	t.Helper()
	coord, err := cluster.StartCoordinator(cluster.CoordinatorConfig{
		HeartbeatTimeout: 500 * time.Millisecond,
		SessionTimeout:   time.Minute,
		Metrics:          reg,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	for i := 0; i < n; i++ {
		w, err := cluster.StartWorker(cluster.WorkerConfig{
			Coordinator:       coord.Addr(),
			Name:              []string{"cw0", "cw1", "cw2"}[i],
			HeartbeatInterval: 100 * time.Millisecond,
			Logf:              t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
	}
	if err := coord.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return coord
}

// TestServerClusterDispatch runs the same query through a plain
// in-process server and through a server dispatching to a 3-worker
// loopback cluster, asserting identical tuples and the cluster-only
// observability surface.
func TestServerClusterDispatch(t *testing.T) {
	req := SubmitRequest{Query: "A ov B and B ra(40) C", Method: "c-rep"}

	plain, _ := newTestServer(t, Config{Workers: 1, CacheBytes: -1})
	want := waitJob(t, plain, submit(t, plain, req).ID)
	if want.State != StateDone {
		t.Fatalf("in-process job: %+v", want)
	}
	wantPage, err := plain.Result(want.ID, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	coord := startTestCoordinator(t, 3, reg)
	s, _ := newTestServer(t, Config{Workers: 1, CacheBytes: -1, Cluster: coord, Metrics: reg})
	got := waitJob(t, s, submit(t, s, req).ID)
	if got.State != StateDone {
		t.Fatalf("cluster job: %+v (err %s)", got, got.Error)
	}
	gotPage, err := s.Result(got.ID, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPage.Tuples, wantPage.Tuples) {
		t.Errorf("cluster tuples diverge from in-process (%d vs %d)", len(gotPage.Tuples), len(wantPage.Tuples))
	}

	// Cluster jobs have no local execution profile.
	if _, err := s.Profile(got.ID); !errors.Is(err, ErrNoProfile) {
		t.Errorf("Profile(cluster job) = %v, want ErrNoProfile", err)
	}

	// Status gains the workers section; gauges track the roster.
	info := s.StatusInfo()
	if info.Workers == nil || info.Workers.Count != 3 || info.Workers.Alive != 3 || info.Workers.Dead != 0 {
		t.Fatalf("status workers section: %+v", info.Workers)
	}
	for _, ws := range info.Workers.Workers {
		if ws.LastHeartbeatMillis < 0 || ws.LastHeartbeatMillis > 5000 {
			t.Errorf("worker %s heartbeat age %dms", ws.Name, ws.LastHeartbeatMillis)
		}
		if ws.Sessions == 0 {
			t.Errorf("worker %s reports no completed sessions", ws.Name)
		}
	}
	if v := reg.Gauge("server_workers_alive").Value(); v != 3 {
		t.Errorf("server_workers_alive = %d, want 3", v)
	}

	// GET /v1/workers serves the same section over HTTP.
	h := NewHandler(s, reg)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/workers", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /v1/workers = %d: %s", rec.Code, rec.Body)
	}
	var cw ClusterWorkers
	if err := json.Unmarshal(rec.Body.Bytes(), &cw); err != nil {
		t.Fatal(err)
	}
	if cw.Count != 3 || len(cw.Workers) != 3 {
		t.Errorf("GET /v1/workers: %+v", cw)
	}

	// Without a cluster, the endpoint 404s.
	hPlain := NewHandler(plain, nil)
	rec = httptest.NewRecorder()
	hPlain.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/workers", nil))
	if rec.Code != 404 {
		t.Errorf("GET /v1/workers without cluster = %d", rec.Code)
	}
}

// TestClusterWarmJobShipsDigestsOnly: the service's cluster path names
// its registered relations by digest, so its first job ships them to
// each worker and a later job's starts carry the digest lists alone
// (the coordinator logs each session's spec bytes).
func TestClusterWarmJobShipsDigestsOnly(t *testing.T) {
	var mu sync.Mutex
	var specBytes []int64
	coord, err := cluster.StartCoordinator(cluster.CoordinatorConfig{
		HeartbeatTimeout: 500 * time.Millisecond,
		SessionTimeout:   time.Minute,
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			t.Log(line)
			if i := strings.Index(line, "; spec "); i >= 0 {
				var n int64
				if _, err := fmt.Sscanf(line[i:], "; spec %d B", &n); err == nil {
					mu.Lock()
					specBytes = append(specBytes, n)
					mu.Unlock()
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	for _, name := range []string{"cw0", "cw1"} {
		w, err := cluster.StartWorker(cluster.WorkerConfig{Coordinator: coord.Addr(), Name: name, HeartbeatInterval: 100 * time.Millisecond, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
	}
	if err := coord.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Workers: 1, CacheBytes: -1, Cluster: coord})
	req := SubmitRequest{Query: "A ov B and B ra(40) C", Method: "c-rep"}
	for i := 0; i < 2; i++ {
		if st := waitJob(t, s, submit(t, s, req).ID); st.State != StateDone {
			t.Fatalf("cluster job %d: %+v (err %s)", i, st, st.Error)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(specBytes) != 2 {
		t.Fatalf("logged spec bytes of %d sessions, want 2", len(specBytes))
	}
	// Three relations of 150 rectangles, 36 bytes each, to two workers.
	if cold := specBytes[0]; cold < 2*3*150*36 {
		t.Errorf("first job wrote %d spec bytes, fewer than its relations to both workers", cold)
	}
	if warm := specBytes[1]; warm > 4<<10 {
		t.Errorf("second job wrote %d spec bytes, want only the digest lists (≤ 4 KiB)", warm)
	}
}

// TestClusterAutoRunsPricedGrid: on a cluster, an "auto" job runs on
// the grid its predicted_pairs and plan_cost were priced on — the
// service's configured one, here a grid the planner used to have no
// candidate for.
func TestClusterAutoRunsPricedGrid(t *testing.T) {
	cfg := oddGrid
	cfg.Cluster = startTestCoordinator(t, 2, metrics.NewRegistry())
	s, _ := newTestServer(t, cfg)
	st := waitJob(t, s, submit(t, s, SubmitRequest{Query: "A ov B and B ra(40) C", Method: "auto"}).ID)
	if st.State != StateDone {
		t.Fatalf("cluster auto job: %s: %s", st.State, st.Error)
	}

	q, err := query.Parse(st.Query)
	if err != nil {
		t.Fatal(err)
	}
	sc := spatial.Config{Scheme: cfg.Partition, Reducers: cfg.Reducers, OptimizeOrder: true}
	rels := testRelations(1)[:3]
	plan, err := spatial.PlanQuery(q, rels, sc, spatial.PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := spatial.Predict(plan.Method, q, rels, sc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Method != plan.Method.String() || st.PlanCost != plan.Cost || st.PredictedPairs != pred.Pairs {
		t.Errorf("job priced as %s at cost %v, %v pairs; the configured grid prices %s at %v, %v pairs",
			st.Method, st.PlanCost, st.PredictedPairs, plan.Method, plan.Cost, pred.Pairs)
	}
	if ran := len(st.Stats.Rounds[0].PairsPerReducer); ran != pred.Cells {
		t.Errorf("job ran on %d cells, its price was for %d", ran, pred.Cells)
	}
}

// TestClusterJobPublishes: a job that runs on the cluster publishes its
// Stats into the server's registry like an in-process one, moving the
// engine series by exactly what the job's Stats record.
func TestClusterJobPublishes(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := newTestServer(t, Config{Workers: 1, CacheBytes: -1, Cluster: startTestCoordinator(t, 2, metrics.NewRegistry()), Metrics: reg})
	runs, pairs := reg.Counter("spatial_runs_total").Value(), reg.Counter("mapreduce_intermediate_pairs_total").Value()
	st := waitJob(t, s, submit(t, s, SubmitRequest{Query: "A ov B and B ra(40) C", Method: "c-rep"}).ID)
	if st.State != StateDone {
		t.Fatalf("cluster job: %s: %s", st.State, st.Error)
	}
	if st.Stats.IntermediatePairs() == 0 {
		t.Fatal("the cluster job shuffled nothing; the test proves nothing")
	}
	if got := reg.Counter("spatial_runs_total").Value() - runs; got != 1 {
		t.Errorf("spatial_runs_total moved by %d, want 1", got)
	}
	var ran int64
	for _, r := range st.Stats.Rounds[st.Stats.Chain.ResumedJobs:] {
		ran += r.IntermediatePairs
	}
	if got := reg.Counter("mapreduce_intermediate_pairs_total").Value() - pairs; got != ran {
		t.Errorf("mapreduce_intermediate_pairs_total moved by %d, want the Stats' %d", got, ran)
	}
}
