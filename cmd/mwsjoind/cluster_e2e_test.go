package main

// Process-level cluster e2e: a real mwsjoind coordinator plus three
// real mwsjworker OS processes on loopback, a cascade join submitted
// over HTTP, one worker SIGKILLing itself mid round 2 — and the served
// tuples must still be bit-identical to the in-process engine. This is
// the release-gate scenario: the coordinator must detect the death, sync
// checkpoints onto the two survivors and re-execute the interrupted
// round.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	"mwsjoin"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/query"
	"mwsjoin/internal/server"
	"mwsjoin/internal/spatial"
)

// syncBuf is a concurrency-safe bytes.Buffer: the daemon goroutine
// writes its stderr while the test polls it for the coordinator line.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestDaemonClusterEndToEnd(t *testing.T) {
	dir := t.TempDir()

	// Real worker binary — the workers must be separate OS processes so
	// the mid-round SIGKILL is a genuine process death, not a simulated
	// one.
	workerBin := filepath.Join(dir, "mwsjworker")
	if out, err := exec.Command("go", "build", "-o", workerBin, "mwsjoin/cmd/mwsjworker").CombinedOutput(); err != nil {
		t.Fatalf("building mwsjworker: %v\n%s", err, out)
	}

	pathA, relA := writeTestRelation(t, dir, "A", 2000, 21)
	pathB, relB := writeTestRelation(t, dir, "B", 2000, 22)
	pathC, relC := writeTestRelation(t, dir, "C", 2000, 23)

	type startInfo struct {
		addr string
		stop func()
	}
	started := make(chan startInfo, 1)
	testAfterStart = func(addr string, stop func()) { started <- startInfo{addr, stop} }
	defer func() { testAfterStart = nil }()

	runErr := make(chan error, 1)
	var errBuf syncBuf
	go func() {
		runErr <- run([]string{
			"-listen", "127.0.0.1:0",
			"-cluster-listen", "127.0.0.1:0", "-cluster-workers", "3", "-cluster-mappers", "8",
			// Far beyond what a loaded host can miss: the SIGKILLed
			// worker is detected by EOF on its control connection, and a
			// live one must never be dropped as stale because the race
			// detector and a neighbouring package held the cores.
			"-cluster-heartbeat-timeout", "30s",
			"-rel", "A=" + pathA, "-rel", "B=" + pathB, "-rel", "C=" + pathC,
			"-workers", "1", "-reducers", "16", "-parallelism", "4",
			"-drain", "30s",
		}, io.Discard, &errBuf)
	}()

	// The daemon logs the coordinator's bound address, then blocks until
	// three workers have joined.
	coordRe := regexp.MustCompile(`coordinator on (\S+), waiting`)
	var coordAddr string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if m := coordRe.FindStringSubmatch(errBuf.String()); m != nil {
			coordAddr = m[1]
			break
		}
		select {
		case err := <-runErr:
			t.Fatalf("daemon exited before the coordinator was up: %v\n%s", err, errBuf.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator address never logged:\n%s", errBuf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Three real worker processes; w1 SIGKILLs itself right before its
	// 4th mesh exchange. A job makes two, its run shuffle and its output
	// gather, so that is round 2's output gather — mid round 2 of the
	// cascade, after the round-1 checkpoint exists on every worker.
	workers := make(map[string]*exec.Cmd)
	for _, w := range []struct {
		name     string
		dieAfter string
	}{{"w0", "0"}, {"w1", "4"}, {"w2", "0"}} {
		cmd := exec.Command(workerBin,
			"-coordinator", coordAddr, "-name", w.name,
			"-die-after-exchanges", w.dieAfter)
		var wlog syncBuf
		cmd.Stderr = &wlog
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting worker %s: %v", w.name, err)
		}
		workers[w.name] = cmd
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}

	var info startInfo
	select {
	case info = <-started:
	case err := <-runErr:
		t.Fatalf("daemon exited before serving: %v\n%s", err, errBuf.String())
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never started serving:\n%s", errBuf.String())
	}
	a := api{t: t, base: "http://" + info.addr}

	// Submit the cascade join and poll it to completion; the victim dies
	// mid-flight and the coordinator must recover on the survivors.
	var sub server.JobStatus
	a.json("POST", "/v1/jobs", server.SubmitRequest{Query: "A ov B and B ov C", Method: "2-way-cascade"},
		&sub, http.StatusAccepted)
	var done server.JobStatus
	deadline := time.Now().Add(120 * time.Second)
	for {
		a.json("GET", "/v1/jobs/"+sub.ID, nil, &done, http.StatusOK)
		if done.State == server.StateDone {
			break
		}
		if done.State != server.StateQueued && done.State != server.StateRunning {
			t.Fatalf("cluster job reached %s: %s\n%s", done.State, done.Error, errBuf.String())
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster job stuck in %s\n%s", done.State, errBuf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The victim really died: its process exited (SIGKILL, not exit 0).
	if err := workers["w1"].Wait(); err == nil {
		t.Error("victim worker exited cleanly; expected SIGKILL")
	}

	// Bit-identity against the in-process engine under the daemon's
	// exact execution config, and exact DFS reconciliation — network
	// shuffle bytes live in their own Stats family.
	q, err := query.Parse("A ov B and B ov C")
	if err != nil {
		t.Fatal(err)
	}
	want, err := spatial.Execute(spatial.Cascade, q, []mwsjoin.Relation{relA, relB, relC}, spatial.Config{
		Reducers: 16, NumMappers: 8, Parallelism: 4, FS: dfs.New(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if done.OutputTuples != want.Stats.OutputTuples {
		t.Errorf("cluster job: %d tuples, in-process %d", done.OutputTuples, want.Stats.OutputTuples)
	}
	gotTuples := map[string]bool{}
	for off := 0; ; {
		var page server.ResultPage
		a.json("GET", fmt.Sprintf("/v1/jobs/%s/result?offset=%d&limit=1000", sub.ID, off), nil, &page, http.StatusOK)
		for _, ids := range page.Tuples {
			gotTuples[mwsjoin.Tuple{IDs: ids}.Key()] = true
		}
		if page.NextOffset == nil {
			break
		}
		off = *page.NextOffset
	}
	if !reflect.DeepEqual(gotTuples, want.TupleSet()) {
		t.Errorf("cluster tuples diverge from in-process: %d vs %d distinct",
			len(gotTuples), len(want.TupleSet()))
	}
	if done.Stats == nil {
		t.Fatal("done cluster job has no stats")
	}
	// The served stats are the recovered attempt's: round 1 replayed
	// from its checkpoint instead of re-executing (so DFS charges are
	// legitimately smaller than a clean run's — clean-run DFS
	// reconciliation is asserted by TestClusterEquivalence).
	if done.Stats.Chain == nil || done.Stats.Chain.ResumedJobs == 0 {
		t.Errorf("recovered job chain shows no resumed steps: %+v", done.Stats.Chain)
	}
	var netBytes int64
	for _, r := range done.Stats.Rounds {
		netBytes += r.ShuffleNetworkBytes
	}
	if netBytes <= 0 {
		t.Error("cluster job reports no ShuffleNetworkBytes")
	}

	// The roster shows the death and the survivors' recovery work.
	var cw server.ClusterWorkers
	a.json("GET", "/v1/workers", nil, &cw, http.StatusOK)
	if cw.Count != 3 || cw.Alive != 2 || cw.Dead != 1 {
		t.Errorf("roster after recovery: %+v", cw)
	}

	info.stop()
	if err := <-runErr; err != nil {
		t.Fatalf("daemon shutdown: %v\n%s", err, errBuf.String())
	}
}
