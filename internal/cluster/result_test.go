package cluster

import (
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/metrics"
	"mwsjoin/internal/spatial"
)

// TestSlowResultKeepsWorkerAlive: a worker is alive while its result is
// arriving. The worker's control connection runs through a proxy that
// passes the worker's bytes on in forty pieces per result, spread over
// 2.5 × HeartbeatTimeout, so the result takes longer than the timeout to
// arrive and the worker's heartbeats queue behind it. The coordinator
// must keep the worker and return the in-process tuples in one attempt.
func TestSlowResultKeepsWorkerAlive(t *testing.T) {
	const timeout = 500 * time.Millisecond
	spec := SpecFromConfig(spatial.ControlledReplicate, clusterQuery, testRelations(2013, 3, 400), spatial.Config{Reducers: 16, NumMappers: 6, Parallelism: 3})
	want := inProcessReference(t, spec)
	if len(want.Tuples) == 0 {
		t.Fatal("the query produced no tuples; the result would cross the wire at once")
	}
	attachment := 4 * len(want.Tuples) * len(want.Tuples[0].IDs)
	const pieces = 40
	gap := timeout * 5 / 2 / pieces

	coord, err := StartCoordinator(CoordinatorConfig{HeartbeatTimeout: timeout, SessionTimeout: time.Minute, Metrics: metrics.NewRegistry(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	proxy := throttledProxy(t, coord.Addr(), max(attachment/pieces, 1), gap)
	w, err := StartWorker(WorkerConfig{Coordinator: proxy, Name: "slow", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	if err := coord.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	got, err := coord.Run(spec)
	if err != nil {
		t.Fatalf("a result arriving over %v: %v", timeout*5/2, err)
	}
	t.Logf("%d tuples (a %d-byte attachment) in %v", len(got.Tuples), attachment, time.Since(start))
	if got.Attempts != 1 {
		t.Errorf("the session took %d attempts, want 1", got.Attempts)
	}
	if !reflect.DeepEqual(got.Tuples, want.Tuples) {
		t.Errorf("cluster tuples diverge from in-process (%d vs %d)", len(got.Tuples), len(want.Tuples))
	}
	if ws := coord.Workers(); len(ws) != 1 || !ws[0].Alive {
		t.Errorf("after the slow result the roster reads %+v, want the worker alive", ws)
	}
}

// TestSilentWorkerDeclaredDead: a worker whose control connection stays
// open but delivers no bytes is dead once HeartbeatTimeout has passed,
// as one whose connection drops is. A raw client registers and then
// says nothing; the roster and the gauges must read it dead within the
// timeout and a small slack.
func TestSilentWorkerDeclaredDead(t *testing.T) {
	const timeout, slack = 500 * time.Millisecond, 500 * time.Millisecond
	reg := metrics.NewRegistry()
	coord := rawCoordinator(t, timeout, reg)
	registerRaw(t, coord, "silent")
	start := time.Now()
	for {
		if ws := coord.Workers(); len(ws) == 1 && !ws[0].Alive && reg.Gauge("server_workers_alive").Value() == 0 {
			break
		}
		if time.Since(start) > timeout+slack {
			t.Fatalf("a worker silent for %v still reads %+v, server_workers_alive %d", time.Since(start), coord.Workers(), reg.Gauge("server_workers_alive").Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("declared dead %v after registering", time.Since(start))
}

// TestStalledReaderKeepsWorkerAlive: the time the coordinator's reader
// of a control connection spends blocked handing a message on is not
// the worker's silence. A raw client registers and sends 17 needs for a
// session no attempt awaits: 16 fill the member's inbox and the 17th
// blocks the reader. It then heartbeats every 100 ms for 3 ×
// HeartbeatTimeout, and must still be alive at the end.
func TestStalledReaderKeepsWorkerAlive(t *testing.T) {
	const timeout = 500 * time.Millisecond
	coord := rawCoordinator(t, timeout, metrics.NewRegistry())
	conn := registerRaw(t, coord, "stalled")
	for range 17 {
		if _, err := writeMessage(conn, &message{Type: msgNeed, Session: "s9999", Digests: []string{"none"}}); err != nil {
			t.Fatal(err)
		}
	}
	for end := time.Now().Add(3 * timeout); time.Now().Before(end); time.Sleep(heartbeatInterval) {
		if _, err := writeMessage(conn, &message{Type: msgHeartbeat}); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
	}
	if ws := coord.Workers(); len(ws) != 1 || !ws[0].Alive {
		t.Errorf("a heartbeating worker whose reader is stalled reads %+v, want alive", ws)
	}
}

// TestHeartbeatTimeoutFloor: a coordinator refuses a HeartbeatTimeout
// shorter than four worker heartbeats, under which an idle worker would
// be dropped between two of them.
func TestHeartbeatTimeoutFloor(t *testing.T) {
	if c, err := StartCoordinator(CoordinatorConfig{HeartbeatTimeout: 4*heartbeatInterval - time.Millisecond}); err == nil {
		c.Close()
		t.Fatalf("a %v heartbeat timeout was accepted", 4*heartbeatInterval-time.Millisecond)
	}
	c, err := StartCoordinator(CoordinatorConfig{HeartbeatTimeout: 4 * heartbeatInterval})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// TestOversizedResultReportsFailure: a result that cannot be framed —
// its IDs exceed maxFrameBytes, so writeMessage fails before it writes a
// byte — is followed by a failed result naming why, so the coordinator
// fails the attempt at once instead of waiting out its SessionTimeout.
// The IDs are made and never written: they cost address space, not
// memory.
func TestOversizedResultReportsFailure(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory would back the 1 GiB of IDs")
	}
	sc := startScripted(t)
	start := &message{Type: msgStart, Session: "s1", Attempt: 2}
	ids := make([]int32, maxFrameBytes/4+1)
	sc.w.report(start, &message{Type: msgResult, Session: "s1", Attempt: 2, OK: true, Hash: "h", Arity: 1, Count: len(ids), IDs: ids}, nil)
	got := sc.next(msgResult)
	if got.OK || got.Session != "s1" || got.Attempt != 2 || !strings.Contains(got.Error, "exceeds the") {
		t.Errorf("after an unframeable result the worker sent %+v, want a failed result naming the frame limit", got)
	}
}

// rawCoordinator starts a coordinator a test speaks to as a worker,
// message by message.
func rawCoordinator(t *testing.T, timeout time.Duration, reg *metrics.Registry) *Coordinator {
	t.Helper()
	coord, err := StartCoordinator(CoordinatorConfig{HeartbeatTimeout: timeout, Metrics: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// registerRaw dials coord, registers under name and returns once the
// coordinator lists the worker.
func registerRaw(t *testing.T, coord *Coordinator, name string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := writeMessage(conn, &message{Type: msgRegister, Proto: protocolVersion, Name: name, DataAddr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	if err := coord.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return conn
}

// throttledProxy relays one connection accepted on its own address to
// target: target's bytes go back as they come, the client's go on in
// pieces of at most piece bytes, one every gap. It stops when either
// side closes; the test's cleanup waits for it.
func throttledProxy(t *testing.T, target string, piece int, gap time.Duration) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		client, err := ln.Accept()
		if err != nil {
			return
		}
		defer client.Close()
		server, err := net.Dial("tcp", target)
		if err != nil {
			return
		}
		defer server.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			io.Copy(client, server)
			client.Close()
		}()
		buf := make([]byte, piece)
		for {
			n, err := client.Read(buf)
			if n > 0 {
				if _, err := server.Write(buf[:n]); err != nil {
					return
				}
			}
			if err != nil {
				return
			}
			time.Sleep(gap)
		}
	}()
	return ln.Addr().String()
}

// TestResultSlabsReusedAcrossSessions: a worker draws each result's ID
// slab from its pool and takes it back once the result is sent, so
// back-to-back sessions of different arities and sizes share slabs. On
// one two-worker cluster a Cascade Q2 (arity 3), a C-Rep-L two-slot
// query (arity 2, a smaller result, served by a larger pooled slab), a
// query with no result, the Cascade Q2 again and an All-Replicate Q2
// must each return in-process Execute's tuples under the one-worker
// hash: a slab put back before it was sent, or a stale tail of a larger
// one, would change the tuples or split the hashes.
func TestResultSlabsReusedAcrossSessions(t *testing.T) {
	cfg := spatial.Config{Reducers: 16, NumMappers: 6, Parallelism: 3}
	rels := testRelations(2013, 3, 400)
	var far []geom.Rect
	for _, it := range rels[0].Items {
		r := it.R
		r.X += 5000
		far = append(far, r)
	}
	apart := []spatial.Relation{rels[0], spatial.NewRelation("R2", far)}
	specs := []SessionSpec{
		SpecFromConfig(spatial.Cascade, clusterQuery, rels, cfg),
		SpecFromConfig(spatial.ControlledReplicateLimit, "R1 ov R2", rels[:2], cfg),
		SpecFromConfig(spatial.Cascade, "R1 ov R2", apart, cfg),
		SpecFromConfig(spatial.Cascade, clusterQuery, rels, cfg),
		SpecFromConfig(spatial.AllReplicate, clusterQuery, rels, cfg),
	}
	one := startTestCluster(t, 1, func(_ int, wc *WorkerConfig) { wc.Logf = nil })
	two := startTestCluster(t, 2, func(_ int, wc *WorkerConfig) { wc.Logf = nil })
	ids := make([]int, len(specs))
	for i, spec := range specs {
		want := inProcessReference(t, spec)
		alone, err := one.coord.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := two.coord.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Workers != 2 {
			t.Fatalf("session %d ran on %d workers, want 2", i, got.Workers)
		}
		if !reflect.DeepEqual(got.Tuples, want.Tuples) {
			t.Errorf("session %d (%s %q): %d tuples diverge from in-process's %d", i, spec.Method, spec.Query, len(got.Tuples), len(want.Tuples))
		}
		if got.Hash != alone.Hash {
			t.Errorf("session %d (%s %q): two workers hash %s, one worker %s", i, spec.Method, spec.Query, got.Hash, alone.Hash)
		}
		for _, tu := range want.Tuples {
			ids[i] += len(tu.IDs)
		}
	}
	// The sequence is the one the test means to run: a smaller slab after
	// a larger one, and an empty result.
	if ids[0] == 0 || ids[1] == 0 || ids[1] >= ids[0] || ids[2] != 0 || ids[4] != ids[0] {
		t.Fatalf("result sizes in IDs %v: want Q2 > the two-slot query > 0 = the empty query, and All-Replicate = Q2", ids)
	}
}
