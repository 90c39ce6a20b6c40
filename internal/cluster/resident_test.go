package cluster

import (
	"bufio"
	"errors"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mwsjoin/internal/spatial"
)

// packedBytes is what shipping the relations once costs in attachments.
func packedBytes(rels []spatial.Relation) int64 {
	var n int64
	for _, rel := range rels {
		n += int64(len(rel.Items) * spatial.PackedItemBytes)
	}
	return n
}

// runChecked runs a spec on the cluster and fails the test unless the
// tuples are the in-process engine's, in one attempt.
func runChecked(t *testing.T, tc *testCluster, spec SessionSpec) *RunResult {
	t.Helper()
	want := inProcessReference(t, spec)
	got, err := tc.coord.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attempts != 1 {
		t.Errorf("%s took %d attempts, want 1", spec.Method, got.Attempts)
	}
	if !reflect.DeepEqual(got.Tuples, want.Tuples) {
		t.Errorf("%s: cluster tuples diverge from in-process (%d vs %d)", spec.Method, len(got.Tuples), len(want.Tuples))
	}
	return got
}

// TestWarmQueryShipsDigestsOnly: the first query ships every relation to
// every worker; a second over the same relations ships their digests
// and nothing else.
func TestWarmQueryShipsDigestsOnly(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	rels := testRelations(2013, 3, 2000)
	cfg := spatial.Config{Reducers: 16, NumMappers: 4, Parallelism: 2}
	cold := runChecked(t, tc, SpecFromConfig(spatial.Cascade, "R1 ov R2 and R2 ov R3", rels, cfg))
	warm := runChecked(t, tc, SpecFromConfig(spatial.ControlledReplicate, "R1 ov R2 and R2 ov R3", rels, cfg))
	t.Logf("spec bytes: cold %d, warm %d", cold.SpecBytes, warm.SpecBytes)
	if min := 2 * packedBytes(rels); cold.SpecBytes < min {
		t.Errorf("cold query wrote %d spec bytes, fewer than its relations to both workers (%d)", cold.SpecBytes, min)
	}
	if warm.SpecBytes > 4<<10 {
		t.Errorf("warm query wrote %d spec bytes, want only the digest lists (≤ 4 KiB)", warm.SpecBytes)
	}
	for _, w := range tc.workers {
		if n := w.resident.len(); n != len(rels) {
			t.Errorf("worker %s keeps %d relations, want %d", w.cfg.Name, n, len(rels))
		}
	}
}

// TestReplacedWorkerIsReshipped: a worker that replaces a lost one
// starts empty and is shipped the relations; the survivor is not.
func TestReplacedWorkerIsReshipped(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	rels := testRelations(11, 3, 2000)
	spec := func() SessionSpec {
		return SpecFromConfig(spatial.Cascade, "R1 ov R2 and R2 ov R3", rels, spatial.Config{Reducers: 16, NumMappers: 4})
	}
	runChecked(t, tc, spec())

	tc.workers[1].Close()
	for deadline := time.Now().Add(5 * time.Second); len(tc.coord.aliveMembers()) != 1; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("closed worker never marked dead")
		}
	}
	w, err := StartWorker(WorkerConfig{Coordinator: tc.coord.Addr(), Name: "w1", HeartbeatInterval: 100 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	tc.workers = append(tc.workers, w)
	if err := tc.coord.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	got := runChecked(t, tc, spec())
	if once := packedBytes(rels); got.SpecBytes < once || got.SpecBytes > once+8<<10 {
		t.Errorf("after the replacement the query wrote %d spec bytes, want the relations once (%d) plus the starts", got.SpecBytes, once)
	}
	if n := w.resident.len(); n != len(rels) {
		t.Errorf("the replacement keeps %d relations, want %d", n, len(rels))
	}
}

// TestRelationsOverResidentCap: with room for one relation a worker
// keeps at most one, asks for the others (need) within the attempt, and
// answers as the in-process engine does, query after query.
func TestRelationsOverResidentCap(t *testing.T) {
	const n = 2000
	defer func(old int64) { residentCap = old }(residentCap)
	residentCap = n * residentItemBytes
	tc := startTestCluster(t, 2, nil)
	rels := testRelations(23, 3, n)
	cfg := spatial.Config{Reducers: 16, NumMappers: 4}
	for i, method := range []spatial.Method{spatial.Cascade, spatial.ControlledReplicateLimit, spatial.Cascade} {
		got := runChecked(t, tc, SpecFromConfig(method, "R1 ov R2 and R2 ra(30) R3", rels, cfg))
		if i > 0 && got.SpecBytes < packedBytes(rels[:1]) {
			t.Errorf("query %d wrote %d spec bytes: the evicted relations were not shipped again", i, got.SpecBytes)
		}
	}
	for _, w := range tc.workers {
		if k := w.resident.len(); k > 1 {
			t.Errorf("worker %s keeps %d relations over a one-relation cap", w.cfg.Name, k)
		}
	}
}

// scriptedCoordinator accepts one worker and lets a test speak the
// control protocol to it message by message.
type scriptedCoordinator struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	w    *Worker
}

func startScripted(t *testing.T) *scriptedCoordinator {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	w, err := StartWorker(WorkerConfig{Coordinator: ln.Addr().String(), Name: "solo", HeartbeatInterval: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	sc := &scriptedCoordinator{t: t, conn: conn, br: bufio.NewReaderSize(conn, controlReadBuffer), w: w}
	t.Cleanup(func() {
		w.Close()
		conn.Close()
	})
	if hello := sc.next(msgRegister); hello.Proto != protocolVersion {
		t.Fatalf("worker registered with protocol %d", hello.Proto)
	}
	return sc
}

func (sc *scriptedCoordinator) send(m *message) {
	sc.t.Helper()
	if _, err := writeMessage(sc.conn, m); err != nil {
		sc.t.Fatal(err)
	}
}

// next returns the worker's next message other than a heartbeat, which
// must be of the given type.
func (sc *scriptedCoordinator) next(typ string) *message {
	sc.t.Helper()
	sc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		m, err := readMessage(sc.br)
		if err != nil {
			sc.t.Fatalf("awaiting %s: %v", typ, err)
		}
		if m.Type == msgHeartbeat {
			continue
		}
		if m.Type != typ {
			sc.t.Fatalf("worker sent %s (%+v), want %s", m.Type, m, typ)
		}
		return m
	}
}

// selfJoin is a one-worker spec binding rel to both slots.
func selfJoin(sc *scriptedCoordinator, session string, attempt int, rel spatial.Relation) *message {
	spec := SpecFromConfig(spatial.Cascade, "a ov b", []spatial.Relation{rel, rel}, spatial.Config{Reducers: 4, NumMappers: 2})
	return &message{Type: msgStart, Session: session, Attempt: attempt, Roster: []string{sc.w.DataAddr()}, Spec: &spec}
}

func shipOf(session string, attempt int, digest string, packed []byte) *message {
	return &message{Type: msgShip, Session: session, Attempt: attempt, Digests: []string{digest}, Rels: [][]byte{packed}}
}

// TestShippedRelationDigestMismatch: a relation with one flipped byte
// fails its digest check; the worker keeps nothing and the attempt that
// asked for it fails, and the next attempt, shipped the true bytes,
// runs. A ship no attempt asked for is dropped unopened.
func TestShippedRelationDigestMismatch(t *testing.T) {
	rel := testRelations(5, 1, 300)[0]
	digest := digestOf(rel)
	flipped := packRelation(rel)
	flipped[spatial.PackedItemBytes*7+9] ^= 0x10

	var de *DigestError
	if _, err := unpackRelation(digest, flipped); !errors.As(err, &de) || de.Want != digest || de.Got == digest {
		t.Fatalf("flipped relation: err = %v, want a *DigestError", err)
	}

	sc := startScripted(t)
	sc.send(shipOf("s1", 0, digest, packRelation(rel))) // unasked
	sc.send(selfJoin(sc, "s1", 0, rel))
	need := sc.next(msgNeed)
	if !reflect.DeepEqual(need.Digests, []string{digest}) || need.Session != "s1" || need.Attempt != 0 {
		t.Fatalf("need: %+v", need)
	}
	sc.send(shipOf("s1", 0, digest, flipped)) // answering the need
	if res := sc.next(msgResult); res.OK || !strings.Contains(res.Error, "hashes to") {
		t.Fatalf("attempt on a flipped relation: %+v", res)
	}
	if n := sc.w.resident.len(); n != 0 {
		t.Fatalf("worker keeps %d relations after an unasked ship and a bad one", n)
	}

	sc.send(selfJoin(sc, "s1", 1, rel))
	sc.next(msgNeed)
	sc.send(shipOf("s1", 1, digest, packRelation(rel)))
	if res := sc.next(msgResult); !res.OK || res.Count == 0 {
		t.Fatalf("attempt on the true relation: %+v", res)
	}
	if n := sc.w.resident.len(); n != 1 {
		t.Fatalf("worker keeps %d relations, want 1", n)
	}
}

// sessionOf returns a worker's state for a session; nil when the worker
// holds none.
func sessionOf(w *Worker, id string) *workerSession {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sessions[id]
}

// awaitClosed returns a channel closed when the session's FS closes.
func awaitClosed(t *testing.T, w *Worker, session string) <-chan struct{} {
	t.Helper()
	s := sessionOf(w, session)
	if s == nil {
		t.Fatalf("worker holds no session %s", session)
	}
	closed := make(chan struct{})
	s.fs.OnClose(func() { close(closed) })
	return closed
}

// TestSessionReleaseMidAttempt ends a session, and closes a worker,
// while an attempt is in flight — waiting for relations, or inside
// spatial.Execute — and kills a worker while the session is held, and
// checks that the session's FS closes only after the attempt or hold
// has returned, and that no goroutine outlives the worker. Run it under
// -race.
func TestSessionReleaseMidAttempt(t *testing.T) {
	before := runtime.NumGoroutine()
	rel := testRelations(9, 1, 20000)[0]
	digest := digestOf(rel)
	func() {
		sc := startScripted(t)

		// end while the attempt waits for a relation it asked for.
		sc.send(selfJoin(sc, "s1", 0, rel))
		sc.next(msgNeed)
		closed := awaitClosed(t, sc.w, "s1")
		sc.send(&message{Type: msgEnd, Session: "s1"})
		if res := sc.next(msgResult); res.OK {
			t.Errorf("an ended session's attempt succeeded: %+v", res)
		}
		<-closed

		// end while the attempt executes.
		sc.send(selfJoin(sc, "s2", 0, rel))
		sc.next(msgNeed)
		sc.send(shipOf("s2", 0, digest, packRelation(rel)))
		sc.send(&message{Type: msgEnd, Session: "s2"})
		sc.next(msgResult) // cancelled or done: either way it returned
		for deadline := time.Now().Add(5 * time.Second); sessionOf(sc.w, "s2") != nil; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("ended session still held")
			}
		}

		// Close while the attempt waits for a relation: Close returns
		// only once the attempt has and the FS is closed.
		sc.send(selfJoin(sc, "s3", 0, testRelations(10, 1, 50)[0]))
		sc.next(msgNeed)
		closed = awaitClosed(t, sc.w, "s3")
		sc.w.Close()
		select {
		case <-closed:
		default:
			t.Error("Close returned before the session's FS closed")
		}
		sc.conn.Close()

		// Kill, from another goroutine than the control loop, while the
		// session is held. The test's own hold stands in for a use of
		// the session's checkpoint pages Kill must wait for.
		sc = startScripted(t)
		sc.send(selfJoin(sc, "s4", 0, rel))
		sc.next(msgNeed)
		sc.send(shipOf("s4", 0, digest, packRelation(rel)))
		if res := sc.next(msgResult); !res.OK {
			t.Fatalf("s4: %+v", res)
		}
		if !slices.ContainsFunc(sessionOf(sc.w, "s4").fs.List(), func(f string) bool { return strings.HasPrefix(f, "chk/") }) {
			t.Fatal("s4 left no checkpoint files")
		}
		closed = awaitClosed(t, sc.w, "s4")
		held := sc.w.holdSession("s4")
		sc.w.Kill()
		select {
		case <-closed:
			t.Error("Kill closed the session's FS while it was held")
		case <-time.After(20 * time.Millisecond):
		}
		held.inUse.Done()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("the session's FS never closed once its hold was done")
		}
		sc.w.Close()
		sc.conn.Close()
	}()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after the worker closed:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}
