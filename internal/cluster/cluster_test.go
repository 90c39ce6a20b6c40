package cluster

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/metrics"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// testCluster is a coordinator plus n in-process workers on loopback
// TCP — the full wire protocol, without separate processes.
type testCluster struct {
	coord   *Coordinator
	workers []*Worker
}

func startTestCluster(t *testing.T, n int, mut func(i int, wc *WorkerConfig)) *testCluster {
	t.Helper()
	coord, err := StartCoordinator(CoordinatorConfig{
		HeartbeatTimeout: 500 * time.Millisecond,
		SessionTimeout:   time.Minute,
		Metrics:          metrics.NewRegistry(),
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{coord: coord}
	t.Cleanup(func() {
		for _, w := range tc.workers {
			w.Close()
		}
		coord.Close()
	})
	for i := 0; i < n; i++ {
		wc := WorkerConfig{
			Coordinator:       coord.Addr(),
			Name:              []string{"w0", "w1", "w2", "w3", "w4"}[i],
			HeartbeatInterval: 100 * time.Millisecond,
			Logf:              t.Logf,
		}
		if mut != nil {
			mut(i, &wc)
		}
		w, err := StartWorker(wc)
		if err != nil {
			t.Fatal(err)
		}
		tc.workers = append(tc.workers, w)
	}
	if err := coord.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return tc
}

func testRelations(seed uint64, nRel, n int) []spatial.Relation {
	rng := rand.New(rand.NewPCG(seed, 99))
	names := []string{"R1", "R2", "R3", "R4"}
	rels := make([]spatial.Relation, nRel)
	for i := range rels {
		rects := make([]geom.Rect, n)
		for j := range rects {
			rects[j] = geom.Rect{
				X: rng.Float64() * 1000,
				Y: rng.Float64() * 1000,
				L: rng.Float64() * 60,
				B: rng.Float64() * 60,
			}
		}
		rels[i] = spatial.NewRelation(names[i], rects)
	}
	return rels
}

// inProcessReference runs the plain single-process engine on the same
// workload a spec describes.
func inProcessReference(t *testing.T, spec SessionSpec) *spatial.Result {
	t.Helper()
	method, err := spatial.ParseMethod(spec.Method)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse(spec.Query)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := spatial.ParsePartitionScheme(spec.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	rels := make([]spatial.Relation, len(spec.Relations))
	for i, rd := range spec.Relations {
		if rels[i], err = UnpackRelation(rd); err != nil {
			t.Fatal(err)
		}
	}
	res, err := spatial.Execute(method, q, rels, spatial.Config{
		Scheme:         scheme,
		Reducers:       spec.Reducers,
		SplitThreshold: spec.SplitThreshold,
		NumMappers:     spec.NumMappers,
		Parallelism:    spec.Parallelism,
		OptimizeOrder:  spec.OptimizeOrder,
		SpillBudget:    spec.SpillBudget,
		FS:             dfs.New(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func testSpec(method string) SessionSpec {
	rels := testRelations(2013, 3, 100)
	return SpecFromConfig(
		mustMethod(method),
		"R1 ov R2 and R2 ra(40) R3",
		rels,
		spatial.Config{Reducers: 16, NumMappers: 6, Parallelism: 3},
	)
}

func mustMethod(s string) spatial.Method {
	m, err := spatial.ParseMethod(s)
	if err != nil {
		panic(err)
	}
	return m
}

// TestClusterEquivalence runs every map-reduce method on a 3-worker
// loopback cluster and on a single-worker cluster, asserting tuple
// sets bit-identical to the in-process engine and network bytes
// accounted in the ShuffleNetwork family only for the real fan-out.
func TestClusterEquivalence(t *testing.T) {
	for _, n := range []int{1, 3} {
		tc := startTestCluster(t, n, nil)
		for _, method := range []string{"2-way-cascade", "all-replicate", "c-rep", "c-rep-l"} {
			spec := testSpec(method)
			want := inProcessReference(t, spec)
			got, err := tc.coord.Run(spec)
			if err != nil {
				t.Fatalf("N=%d %s: %v", n, method, err)
			}
			if got.Workers != n || got.Attempts != 1 {
				t.Errorf("N=%d %s: ran on %d workers in %d attempts", n, method, got.Workers, got.Attempts)
			}
			if !reflect.DeepEqual(got.Tuples, want.Tuples) {
				t.Errorf("N=%d %s: cluster tuples diverge from in-process (%d vs %d)", n, method, len(got.Tuples), len(want.Tuples))
			}
			if got.Stats.OutputTuples != want.Stats.OutputTuples {
				t.Errorf("N=%d %s: OutputTuples %d vs %d", n, method, got.Stats.OutputTuples, want.Stats.OutputTuples)
			}
			if got.Stats.DFS != want.Stats.DFS {
				t.Errorf("N=%d %s: DFS charges diverge:\n got %+v\nwant %+v", n, method, got.Stats.DFS, want.Stats.DFS)
			}
			var net int64
			for _, r := range got.Stats.Rounds {
				net += r.ShuffleNetworkBytes
			}
			if n == 1 && net != 0 {
				t.Errorf("N=1 %s: ShuffleNetworkBytes = %d on the degenerate case", method, net)
			}
			if n == 3 && net == 0 {
				t.Errorf("N=3 %s: no network shuffle bytes recorded", method)
			}
		}
	}
}

// TestClusterRecovery SIGKILL-equivalently kills one worker mid-round
// (after the first cascade step committed its checkpoint) and asserts
// the coordinator retries on the survivors with bit-identical tuples.
func TestClusterRecovery(t *testing.T) {
	victim := 2
	tc := startTestCluster(t, 3, func(i int, wc *WorkerConfig) {
		if i == victim {
			// A 3-relation cascade is two jobs of three exchanges each;
			// dying on the fourth is mid round two, after the step-one
			// checkpoint committed.
			wc.DieAfterExchanges = 4
			wc.DieInProcess = true
		}
	})

	spec := testSpec("2-way-cascade")
	want := inProcessReference(t, spec)
	got, err := tc.coord.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attempts != 2 {
		t.Errorf("recovered run took %d attempts, want 2", got.Attempts)
	}
	if got.Workers != 2 {
		t.Errorf("recovered run finished on %d workers, want 2", got.Workers)
	}
	if !reflect.DeepEqual(got.Tuples, want.Tuples) {
		t.Errorf("recovered tuples diverge from in-process (%d vs %d)", len(got.Tuples), len(want.Tuples))
	}

	ws := tc.coord.Workers()
	var dead int
	for _, s := range ws {
		if !s.Alive {
			dead++
		}
	}
	if dead != 1 {
		t.Errorf("worker status reports %d dead workers, want 1", dead)
	}

	// The cluster keeps serving on the survivors.
	again, err := tc.coord.Run(testSpec("c-rep"))
	if err != nil {
		t.Fatal(err)
	}
	if again.Workers != 2 || again.Attempts != 1 {
		t.Errorf("post-recovery run: %d workers, %d attempts", again.Workers, again.Attempts)
	}
}

// TestClusterRecoveryAllMethods kills a worker mid-round under every
// method (first-job exchanges, so also the single-round methods) and
// checks tuple identity after recovery.
func TestClusterRecoveryAllMethods(t *testing.T) {
	for _, method := range []string{"all-replicate", "c-rep", "c-rep-l"} {
		t.Run(method, func(t *testing.T) {
			victim := 1
			tc := startTestCluster(t, 3, func(i int, wc *WorkerConfig) {
				if i == victim {
					wc.DieAfterExchanges = 2 // mid shuffle of the first job
					wc.DieInProcess = true
				}
			})
			spec := testSpec(method)
			want := inProcessReference(t, spec)
			got, err := tc.coord.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if got.Attempts != 2 {
				t.Errorf("%s: recovered run took %d attempts, want 2", method, got.Attempts)
			}
			if !reflect.DeepEqual(got.Tuples, want.Tuples) {
				t.Errorf("%s: recovered tuples diverge", method)
			}
		})
	}
}

func TestClusterWorkerStatusAndGauges(t *testing.T) {
	reg := metrics.NewRegistry()
	coord, err := StartCoordinator(CoordinatorConfig{
		HeartbeatTimeout: 500 * time.Millisecond,
		Metrics:          reg,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	w, err := StartWorker(WorkerConfig{Coordinator: coord.Addr(), Name: "w0", HeartbeatInterval: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := coord.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	ws := coord.Workers()
	if len(ws) != 1 || !ws[0].Alive || ws[0].Name != "w0" || ws[0].DataAddr != w.DataAddr() {
		t.Fatalf("worker status: %+v", ws)
	}
	if got := reg.Gauge("server_workers_alive").Value(); got != 1 {
		t.Errorf("server_workers_alive = %d, want 1", got)
	}

	// A duplicate name is rejected outright.
	if _, err := StartWorker(WorkerConfig{Coordinator: coord.Addr(), Name: "w0", Logf: t.Logf}); err == nil {
		// Registration is async on the coordinator side: the dial
		// succeeds, then the connection is dropped. Verify no second
		// member ever turns alive.
		time.Sleep(200 * time.Millisecond)
		alive := 0
		for _, s := range coord.Workers() {
			if s.Alive {
				alive++
			}
		}
		if alive != 1 {
			t.Errorf("duplicate registration produced %d alive workers", alive)
		}
	}

	// Death by silence: kill the worker, the heartbeat monitor reaps it.
	w.Kill()
	deadlineOK := false
	for i := 0; i < 100; i++ {
		// The gauges are set just after the roster flips, so wait for
		// both instead of racing the monitor for the second.
		if ws := coord.Workers(); len(ws) >= 1 && !ws[0].Alive && reg.Gauge("server_workers_alive").Value() == 0 {
			deadlineOK = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !deadlineOK {
		t.Fatal("killed worker never marked dead")
	}
	if got := reg.Gauge("server_workers_alive").Value(); got != 0 {
		t.Errorf("server_workers_alive = %d after death, want 0", got)
	}
	if got := reg.Gauge("server_workers_dead").Value(); got == 0 {
		t.Errorf("server_workers_dead = %d after death, want > 0", got)
	}

	// No alive workers: a run fails fast.
	if _, err := coord.Run(testSpec("c-rep")); err == nil || !strings.Contains(err.Error(), "no alive workers") {
		t.Errorf("run with dead cluster: err = %v", err)
	}
}

func TestRelationPackRoundTrip(t *testing.T) {
	rels := testRelations(7, 2, 50)
	for _, rel := range rels {
		got, err := UnpackRelation(PackRelation(rel))
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != rel.Name || !reflect.DeepEqual(got.Items, rel.Items) {
			t.Fatalf("relation %s did not round-trip", rel.Name)
		}
	}
	if _, err := UnpackRelation(RelationData{Name: "x", Items: make([]byte, 5)}); err == nil {
		t.Error("truncated relation unpacked without error")
	}
}
