package cluster

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/mapreduce"
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
			Coordinator: coord.Addr(),
			Name:        []string{"w0", "w1", "w2", "w3", "w4"}[i],
			Logf:        t.Logf,
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
	rels := spec.rels
	cfg := spatial.Config{
		Scheme:         scheme,
		Reducers:       spec.Reducers,
		SplitThreshold: spec.SplitThreshold,
		NumMappers:     spec.NumMappers,
		Parallelism:    spec.Parallelism,
		OptimizeOrder:  spec.OptimizeOrder,
		AllowSelfPairs: spec.AllowSelfPairs,
		FS:             dfs.New(0),
	}
	if spec.EuclideanLimit {
		cfg.LimitMetric = grid.MetricEuclidean
	}
	res, err := spatial.Execute(method, q, rels, cfg)
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

// knobSpec is a self-join under the two Config values that change the
// answer — AllowSelfPairs the tuples, the Euclidean limit C-Rep-L's
// replication — and that a worker must therefore take from the spec.
func knobSpec() SessionSpec {
	r := testRelations(7, 1, 150)[0]
	return SpecFromConfig(spatial.ControlledReplicateLimit, "a ov b and b ra(40) c", []spatial.Relation{r, r, r},
		spatial.Config{Reducers: 16, NumMappers: 6, Parallelism: 3, AllowSelfPairs: true, LimitMetric: grid.MetricEuclidean})
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
		specs := []SessionSpec{testSpec("2-way-cascade"), testSpec("all-replicate"), testSpec("c-rep"), testSpec("c-rep-l"), knobSpec()}
		for _, spec := range specs {
			method := spec.Method + " on " + spec.Query
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

// TestWorkersOwnTheirPools: each worker runs its executions on a buffer
// pool of its own, as each worker process of a deployment owns its
// memory. After a two-worker cascade session the workers hold distinct
// pools, and each has taken back its checkpoint pages when the session
// ended.
func TestWorkersOwnTheirPools(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	if _, err := tc.coord.Run(testSpec("2-way-cascade")); err != nil {
		t.Fatal(err)
	}
	for _, w := range tc.workers {
		w.Close() // waits for the session's release, which closes its FS
	}
	a, b := tc.workers[0].pool, tc.workers[1].pool
	if a == nil || a == b {
		t.Fatalf("the workers' pools are %p and %p, want two", a, b)
	}
	for i, p := range []*mapreduce.BufferPool{a, b} {
		held := p.Retained()
		page := p.GetPage()
		if got := held - p.Retained(); got != mapreduce.PageBytes {
			t.Errorf("worker %d's pool retains %d B and gave out %d B of them for a page; want a page it held", i, held, got)
		}
		p.PutPage(page)
	}
}

// TestClusterRecovery SIGKILL-equivalently kills one worker mid-round
// (after the first cascade step committed its checkpoint) and asserts
// the coordinator retries on the survivors with bit-identical tuples.
func TestClusterRecovery(t *testing.T) {
	victim := 2
	tc := startTestCluster(t, 3, func(i int, wc *WorkerConfig) {
		if i == victim {
			// A 3-relation cascade is two jobs of two exchanges each
			// (the run shuffle, then the output gather); dying before
			// the fourth is before round two's output gather, after the
			// step-one checkpoint committed.
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
					wc.DieAfterExchanges = 2 // before the first job's output gather, its second exchange
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
	w, err := StartWorker(WorkerConfig{Coordinator: coord.Addr(), Name: "w0", Logf: t.Logf})
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

	// Death: kill the worker; its connection drops and the coordinator's
	// reader marks it dead.
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

// TestRelationPackRoundTrip: a relation survives packRelation and
// unpackRelation under its digest, and every control message type — the
// bulk-carrying ones at their edge sizes — survives writeMessage and
// readMessage over a connection.
func TestRelationPackRoundTrip(t *testing.T) {
	rels := testRelations(7, 2, 50)
	for _, rel := range rels {
		got, err := unpackRelation(digestOf(rel), packRelation(rel))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Items, rel.Items) {
			t.Fatalf("relation %s did not round-trip", rel.Name)
		}
	}
	var de *DigestError
	if _, err := unpackRelation(digestOf(rels[0]), make([]byte, 5)); !errors.As(err, &de) {
		t.Errorf("truncated relation: err = %v, want a *DigestError", err)
	}
	five := sha256.Sum256(make([]byte, 5))
	if _, err := unpackRelation(hex.EncodeToString(five[:]), make([]byte, 5)); err == nil || errors.As(err, &de) {
		t.Errorf("5 bytes under their own digest: err = %v, want a length error", err)
	}

	for _, m := range sampleMessages() {
		pipeRoundTrip(t, m)
	}

	// start names the relations and carries none of them.
	for _, nRel := range []int{0, 1, 3} {
		spec := SpecFromConfig(mustMethod("c-rep"), "q", testRelations(11, nRel, 40), spatial.Config{Reducers: 4, NumMappers: 2})
		got := pipeRoundTrip(t, &message{Type: msgStart, Session: "s1", Self: 1, Roster: []string{"a", "b"}, Spec: &spec})
		if !reflect.DeepEqual(got.Spec.Relations, spec.Relations) {
			t.Errorf("start with %d relations: names and digests did not round-trip: %+v", nRel, got.Spec.Relations)
		}
	}

	// ship: the relations arrive as they were packed, empty ones too.
	for _, nRel := range []int{0, 1, 3} {
		shipped := testRelations(11, nRel, 40)
		if nRel == 3 {
			shipped[1] = spatial.NewRelation("R2", nil)
		}
		out := &message{Type: msgShip, Session: "s1", Attempt: 1}
		for _, rel := range shipped {
			out.Digests = append(out.Digests, digestOf(rel))
			out.Rels = append(out.Rels, packRelation(rel))
		}
		got := pipeRoundTrip(t, out)
		for i, rel := range shipped {
			back, err := unpackRelation(got.Digests[i], got.Rels[i])
			if err != nil || len(back.Items) != len(rel.Items) || (len(rel.Items) > 0 && !reflect.DeepEqual(back.Items, rel.Items)) {
				t.Errorf("ship with %d relations: relation %d did not round-trip (err %v)", nRel, i, err)
			}
		}
	}

	// result: the IDs come back as the slab they were written from, and a
	// decoded result re-encodes to the bytes it was read from; the
	// coordinator's carve of it is the rows' tuples.
	rng := rand.New(rand.NewPCG(5, 5))
	for _, n := range []int{0, 1, 60000} {
		rows := spatial.Rows{Arity: 3, IDs: []int32{}}
		for i := range n {
			rows.IDs = append(rows.IDs, rng.Int32(), -rng.Int32(), int32(i))
		}
		out := &message{Type: msgResult, Session: "s1", OK: true, Hash: hashTuples(rows), Stats: json.RawMessage(`{"OutputTuples":1}`)}
		if n > 0 {
			out.Arity, out.Count, out.IDs = rows.Arity, rows.Len(), rows.IDs
		}
		got := pipeRoundTrip(t, out)
		if !slices.Equal(got.IDs, rows.IDs) || (n == 0) != (got.IDs == nil) {
			t.Errorf("result with %d tuples: %d ids came back (nil=%v)", n, len(got.IDs), got.IDs == nil)
		}
		if n > 0 && !reflect.DeepEqual(spatial.Rows{Arity: got.Arity, IDs: got.IDs}.Tuples(), rows.Tuples()) {
			t.Errorf("result with %d tuples: the carve differs from the rows' tuples", n)
		}
		var wire, again bytes.Buffer
		if _, err := writeMessage(&wire, out); err != nil {
			t.Fatal(err)
		}
		back, err := readFrom(wire.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := writeMessage(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), wire.Bytes()) {
			t.Errorf("result with %d tuples: the decoded message re-encodes to %d bytes that differ from the %d it was read from", n, again.Len(), wire.Len())
		}
	}
}

// sampleMessages is one message of every control-plane type, bulk
// fields populated where the type has them.
func sampleMessages() []*message {
	spec := SpecFromConfig(mustMethod("2-way-cascade"), "R1 ov R2", testRelations(3, 2, 10), spatial.Config{Reducers: 4, NumMappers: 2})
	resume := spec
	resume.Resume = true
	empty := spatial.NewRelation("E", nil)
	return []*message{
		{Type: msgRegister, Proto: protocolVersion, Name: "w0", DataAddr: "127.0.0.1:1"},
		{Type: msgHeartbeat},
		{Type: msgResult, Session: "s1", Attempt: 1, OK: true, Hash: "ab", Stats: json.RawMessage(`{"OutputTuples":2}`), Arity: 2, Count: 2, IDs: []int32{1, 2, 3, 4}},
		{Type: msgResult, Session: "s1", Error: "boom"},
		{Type: msgNeed, Session: "s1", Attempt: 1, Digests: []string{spec.Relations[1].Digest}},
		{Type: msgShip, Session: "s1", Attempt: 1, Digests: []string{spec.Relations[0].Digest, spec.Relations[1].Digest}, Rels: [][]byte{packRelation(spec.rels[0]), packRelation(spec.rels[1])}},
		{Type: msgShip, Session: "s1", Attempt: 1, Error: "session s1 names no relation 0123456789ab"},
		{Type: msgShip, Session: "s1", Attempt: 1, Digests: []string{digestOf(empty)}, Rels: [][]byte{packRelation(empty)}},
		{Type: msgStart, Session: "s1", Attempt: 1, Self: 1, Roster: []string{"x:1", "y:2"}, Spec: &spec},
		{Type: msgStart, Session: "s1", Attempt: 2, Roster: []string{"x:1", "y:2"}, Spec: &resume},
		{Type: msgEnd, Session: "s1"},
	}
}

// sameMessage compares two messages as the wire sees them: equal header
// lines, equal attachments (nil and empty alike).
func sameMessage(a, b *message) bool {
	ha, errA := json.Marshal(wireHeader{message: a})
	hb, errB := json.Marshal(wireHeader{message: b})
	fa, fb := a.bulk(), b.bulk()
	if errA != nil || errB != nil || !bytes.Equal(ha, hb) || len(fa) != len(fb) || !slices.Equal(a.IDs, b.IDs) {
		return false
	}
	for i := range fa {
		if !bytes.Equal(*fa[i], *fb[i]) {
			return false
		}
	}
	return true
}

// pipeRoundTrip sends m through writeMessage and readMessage over a
// net.Pipe and fails the test unless the same message, at the size the
// writer reported, comes out.
func pipeRoundTrip(t *testing.T, m *message) *message {
	t.Helper()
	c1, c2 := net.Pipe()
	defer c2.Close()
	type sent struct {
		n   int64
		err error
	}
	done := make(chan sent, 1)
	go func() {
		n, err := writeMessage(c1, m)
		c1.Close()
		done <- sent{n, err}
	}()
	br := bufio.NewReaderSize(c2, controlReadBuffer)
	got, err := readMessage(br)
	if err != nil {
		t.Fatalf("%s: read: %v", m.Type, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("%s: bytes left on the wire after the message (err %v)", m.Type, err)
	}
	w := <-done
	if w.err != nil {
		t.Fatalf("%s: write: %v", m.Type, w.err)
	}
	if !sameMessage(got, m) {
		t.Errorf("%s message did not round-trip:\n got %+v\nwant %+v", m.Type, got, m)
	}
	if got.wireBytes != w.n {
		t.Errorf("%s: reader counted %d bytes, writer %d", m.Type, got.wireBytes, w.n)
	}
	return got
}
