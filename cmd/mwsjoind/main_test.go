package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mwsjoin"

	"mwsjoin/internal/server"
)

// writeTestRelation writes a deterministic random dataset file and
// returns the in-memory relation for the serial reference run.
func writeTestRelation(t *testing.T, dir, name string, n int, seed uint64) (string, mwsjoin.Relation) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 42))
	rects := make([]mwsjoin.Rect, n)
	for i := range rects {
		rects[i] = mwsjoin.Rect{
			X: rng.Float64() * 900,
			Y: rng.Float64() * 900,
			L: rng.Float64() * 50,
			B: rng.Float64() * 50,
		}
	}
	path := filepath.Join(dir, name+".csv")
	if err := mwsjoin.WriteRelationFile(path, rects); err != nil {
		t.Fatal(err)
	}
	return path, mwsjoin.NewRelation(name, rects)
}

// api is a tiny JSON client against the daemon under test.
type api struct {
	t    *testing.T
	base string
}

func (a api) do(method, path string, body any) (int, []byte) {
	a.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			a.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		a.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		a.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		a.t.Fatal(err)
	}
	return resp.StatusCode, b
}

func (a api) json(method, path string, body, out any, wantStatus int) {
	a.t.Helper()
	status, b := a.do(method, path, body)
	if status != wantStatus {
		a.t.Fatalf("%s %s: status %d (want %d): %s", method, path, status, wantStatus, b)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			a.t.Fatalf("%s %s: bad JSON: %v\n%s", method, path, err, b)
		}
	}
}

// TestDaemonEndToEnd boots mwsjoind on a free port and drives the whole
// submit → poll → paginate-result → cancel lifecycle over real HTTP,
// checking the served answer is bit-identical to a serial Options-API
// run and that a repeated submission is a cache hit.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	// The 3-way join over these sizes runs for hundreds of milliseconds
	// at minimum (far more under -race); the cancellation section below
	// stacks three such runs on the single worker so the victim job is
	// reliably still queued when the cancel lands, even when loopback
	// round trips jitter by tens of milliseconds under CPU contention.
	pathA, relA := writeTestRelation(t, dir, "A", 3000, 1)
	pathB, relB := writeTestRelation(t, dir, "B", 3000, 2)
	pathC, relC := writeTestRelation(t, dir, "C", 3000, 3)

	type startInfo struct {
		addr string
		stop func()
	}
	started := make(chan startInfo, 1)
	testAfterStart = func(addr string, stop func()) { started <- startInfo{addr, stop} }
	defer func() { testAfterStart = nil }()

	runErr := make(chan error, 1)
	var errBuf bytes.Buffer
	go func() {
		runErr <- run([]string{
			"-listen", "127.0.0.1:0",
			"-rel", "A=" + pathA, "-rel", "B=" + pathB, "-rel", "C=" + pathC,
			"-workers", "1", "-reducers", "16", "-parallelism", "4",
			"-drain", "30s",
		}, io.Discard, &errBuf)
	}()
	var info startInfo
	select {
	case info = <-started:
	case err := <-runErr:
		t.Fatalf("daemon exited before serving: %v\n%s", err, errBuf.String())
	}
	a := api{t: t, base: "http://" + info.addr}

	// Relations are listed with content fingerprints.
	var infos []server.RelationInfo
	a.json("GET", "/v1/relations", nil, &infos, http.StatusOK)
	if len(infos) != 3 {
		t.Fatalf("relations: %+v", infos)
	}
	for i, rel := range []mwsjoin.Relation{relA, relB, relC} {
		want := fmt.Sprintf("%016x", mwsjoin.RelationFingerprint(rel))
		if infos[i].Fingerprint != want {
			t.Errorf("relation %s fingerprint %s, want %s", infos[i].Name, infos[i].Fingerprint, want)
		}
	}

	// Submit a 3-way join, then a second job, and cancel the second
	// while it is still queued behind the first (-workers 1 makes the
	// ordering deterministic). Two filler runs of the same join under
	// different methods keep the single worker busy — on a fast machine
	// one heavy job alone can finish before the cancel request lands —
	// and the victim's negative priority stops the cost-ordered queue
	// from running the cheap victim ahead of the remaining fillers.
	var heavy server.JobStatus
	a.json("POST", "/v1/jobs", server.SubmitRequest{Query: "A ov B and B ov C", Method: "c-rep-l"},
		&heavy, http.StatusAccepted)
	if heavy.State != server.StateQueued && heavy.State != server.StateRunning {
		t.Fatalf("submitted job state %s", heavy.State)
	}
	for _, filler := range []string{"c-rep", "all-replicate"} {
		var f server.JobStatus
		a.json("POST", "/v1/jobs", server.SubmitRequest{Query: "A ov B and B ov C", Method: filler},
			&f, http.StatusAccepted)
	}
	var victim server.JobStatus
	a.json("POST", "/v1/jobs", server.SubmitRequest{Query: "A ov C", Method: "2-way-cascade", Priority: -1},
		&victim, http.StatusAccepted)
	var cancelled server.JobStatus
	a.json("DELETE", "/v1/jobs/"+victim.ID, nil, &cancelled, http.StatusOK)
	if cancelled.State != server.StateCancelled {
		t.Fatalf("cancelled queued job state %s", cancelled.State)
	}
	if status, _ := a.do("GET", "/v1/jobs/"+victim.ID+"/result", nil); status != http.StatusConflict {
		t.Fatalf("result of cancelled job: status %d, want 409", status)
	}

	// Poll the heavy job to completion and verify progress fields moved.
	var done server.JobStatus
	deadline := time.Now().Add(60 * time.Second)
	for {
		a.json("GET", "/v1/jobs/"+heavy.ID, nil, &done, http.StatusOK)
		if done.State == server.StateDone {
			break
		}
		if done.State != server.StateQueued && done.State != server.StateRunning {
			t.Fatalf("heavy job reached %s: %s", done.State, done.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("heavy job stuck in %s (step %d %q)", done.State, done.StepsDone, done.CurrentStep)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if done.Stats == nil || done.StepsDone != len(done.Stats.Rounds) {
		t.Fatalf("done job progress: steps %d, stats %+v", done.StepsDone, done.Stats)
	}

	// The served stats and tuples must be bit-identical to a serial run
	// through the public Options API.
	q, err := mwsjoin.ParseQuery("A ov B and B ov C")
	if err != nil {
		t.Fatal(err)
	}
	want, err := mwsjoin.Run(q, []mwsjoin.Relation{relA, relB, relC}, mwsjoin.ControlledReplicateLimit,
		&mwsjoin.Options{Reducers: 16, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	gotStats, wantStats := *done.Stats, want.Stats
	gotStats.Wall, wantStats.Wall = 0, 0
	zeroRoundWalls := func(s *mwsjoin.Stats) {
		for i := range s.Rounds {
			cp := *s.Rounds[i]
			cp.MapWall, cp.ReduceWall, cp.TotalWall = 0, 0, 0
			s.Rounds[i] = &cp
		}
	}
	zeroRoundWalls(&gotStats)
	zeroRoundWalls(&wantStats)
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("served stats diverge from serial run:\n got: %+v\nwant: %+v", gotStats, wantStats)
	}
	gotTuples := map[string]bool{}
	total := 0
	for off := 0; ; {
		var page server.ResultPage
		a.json("GET", fmt.Sprintf("/v1/jobs/%s/result?offset=%d&limit=101", heavy.ID, off), nil,
			&page, http.StatusOK)
		total += page.Count
		for _, ids := range page.Tuples {
			gotTuples[mwsjoin.Tuple{IDs: ids}.Key()] = true
		}
		if page.NextOffset == nil {
			break
		}
		off = *page.NextOffset
	}
	if int64(total) != want.Stats.OutputTuples || !reflect.DeepEqual(gotTuples, want.TupleSet()) {
		t.Errorf("paginated tuples: %d rows, %d distinct; serial run has %d",
			total, len(gotTuples), want.Stats.OutputTuples)
	}

	// A second identical submission is served from the cache without
	// running any new map-reduce work.
	var again server.JobStatus
	a.json("POST", "/v1/jobs", server.SubmitRequest{Query: "A ov B and B ov C", Method: "c-rep-l"},
		&again, http.StatusOK)
	if !again.Cached || again.State != server.StateDone || again.OutputTuples != done.OutputTuples {
		t.Fatalf("repeat submission not a cache hit: %+v", again)
	}
	_, metricsBody := a.do("GET", "/metrics", nil)
	if !strings.Contains(string(metricsBody), "server_cache_hits_total 1") {
		t.Errorf("/metrics missing server_cache_hits_total 1")
	}
	if status, body := a.do("GET", "/debug/pprof/", nil); status != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("/debug/pprof/: status %d, index missing the goroutine profile", status)
	}

	// Error envelope paths.
	if status, body := a.do("POST", "/v1/jobs", nil); status != http.StatusBadRequest {
		t.Errorf("empty submit: status %d: %s", status, body)
	}
	if status, _ := a.do("GET", "/v1/jobs/zzz", nil); status != http.StatusNotFound {
		t.Errorf("unknown job: status %d", status)
	}
	if status, _ := a.do("DELETE", "/v1/jobs/"+heavy.ID, nil); status != http.StatusConflict {
		t.Errorf("cancel of done job: status %d", status)
	}

	info.stop()
	if err := <-runErr; err != nil {
		t.Fatalf("daemon shutdown: %v\n%s", err, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "shut down cleanly") {
		t.Errorf("daemon log missing clean-shutdown line:\n%s", errBuf.String())
	}
}

// TestDaemonFlagErrors covers startup validation.
func TestDaemonFlagErrors(t *testing.T) {
	if err := run([]string{"-listen", "127.0.0.1:0"}, io.Discard, io.Discard); err == nil {
		t.Error("daemon started with no relations")
	}
	if err := run([]string{"-rel", "broken"}, io.Discard, io.Discard); err == nil {
		t.Error("daemon accepted a malformed -rel")
	}
	if err := run([]string{"-rel", "A=/does/not/exist.csv", "-listen", "127.0.0.1:0"}, io.Discard, io.Discard); err == nil {
		t.Error("daemon started with a missing dataset file")
	}
}

// TestDaemonObservabilityEndToEnd boots the daemon with profiling
// enabled and drives the observability surface over real HTTP: the
// execution profile and Chrome trace of a done job, the slowlog,
// /v1/status identity (version, go version, uptime), and the SLO and
// uptime/build-info metrics — all without changing a single tuple.
func TestDaemonObservabilityEndToEnd(t *testing.T) {
	dir := t.TempDir()
	pathA, relA := writeTestRelation(t, dir, "A", 1500, 11)
	pathB, relB := writeTestRelation(t, dir, "B", 1500, 12)

	type startInfo struct {
		addr string
		stop func()
	}
	started := make(chan startInfo, 1)
	testAfterStart = func(addr string, stop func()) { started <- startInfo{addr, stop} }
	defer func() { testAfterStart = nil }()

	runErr := make(chan error, 1)
	var errBuf bytes.Buffer
	go func() {
		runErr <- run([]string{
			"-listen", "127.0.0.1:0",
			"-rel", "A=" + pathA, "-rel", "B=" + pathB,
			"-workers", "1", "-reducers", "16", "-parallelism", "4",
			"-slowlog", "8",
			"-drain", "30s",
		}, io.Discard, &errBuf)
	}()
	var info startInfo
	select {
	case info = <-started:
	case err := <-runErr:
		t.Fatalf("daemon exited before serving: %v\n%s", err, errBuf.String())
	}
	a := api{t: t, base: "http://" + info.addr}

	waitDone := func(id string) server.JobStatus {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			var st server.JobStatus
			a.json("GET", "/v1/jobs/"+id, nil, &st, http.StatusOK)
			if st.State == server.StateDone {
				return st
			}
			if st.State != server.StateQueued && st.State != server.StateRunning {
				t.Fatalf("job %s reached %s: %s", id, st.State, st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	var sub server.JobStatus
	a.json("POST", "/v1/jobs", server.SubmitRequest{Query: "A ov B", Method: "c-rep"}, &sub, http.StatusAccepted)
	done := waitDone(sub.ID)
	if !done.HasProfile || done.E2EUS <= 0 {
		t.Errorf("done job status lacks observability fields: %+v", done)
	}

	// Profile: counters must reconcile with the served stats.
	var prof mwsjoin.Profile
	a.json("GET", "/v1/jobs/"+sub.ID+"/profile", nil, &prof, http.StatusOK)
	if prof.Method != "c-rep" || prof.OutputTuples != done.OutputTuples ||
		prof.IntermediatePairs != done.Stats.IntermediatePairs() || len(prof.Rounds) == 0 {
		t.Errorf("served profile %+v diverges from job stats", prof)
	}

	// Chrome trace: must pass the schema validator.
	status, chromeBody := a.do("GET", "/v1/jobs/"+sub.ID+"/trace", nil)
	if status != http.StatusOK {
		t.Fatalf("/trace status %d: %s", status, chromeBody)
	}
	if err := mwsjoin.ValidateChromeTrace(chromeBody); err != nil {
		t.Errorf("served Chrome trace fails validation: %v", err)
	}

	// Slowlog: the executed job, with a pointer to its profile.
	var slow []server.SlowlogEntry
	a.json("GET", "/v1/slowlog", nil, &slow, http.StatusOK)
	if len(slow) != 1 || slow[0].ID != sub.ID || slow[0].Profile == "" {
		t.Errorf("slowlog = %+v", slow)
	}

	// Status: build identity and live snapshot.
	var svc server.ServiceStatus
	a.json("GET", "/v1/status", nil, &svc, http.StatusOK)
	if svc.Version != "dev" || !strings.HasPrefix(svc.GoVersion, "go") {
		t.Errorf("status identity = %q/%q", svc.Version, svc.GoVersion)
	}
	if svc.UptimeSeconds < 0 || svc.Jobs[server.StateDone] != 1 || svc.SlowlogEntries != 1 {
		t.Errorf("status snapshot = %+v", svc)
	}

	// Metrics: SLO histograms, uptime gauge and build info.
	_, metricsBody := a.do("GET", "/metrics", nil)
	for _, want := range []string{
		"server_slo_queue_wait_us", "server_slo_exec_us", "server_slo_e2e_us",
		"server_uptime_seconds", "server_build_info_dev 1",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// A cache hit has no profile (409) and no slowlog entry.
	var hit server.JobStatus
	a.json("POST", "/v1/jobs", server.SubmitRequest{Query: "A ov B", Method: "c-rep"}, &hit, http.StatusOK)
	if !hit.Cached {
		t.Fatalf("repeat submission missed the cache: %+v", hit)
	}
	if status, body := a.do("GET", "/v1/jobs/"+hit.ID+"/profile", nil); status != http.StatusConflict {
		t.Errorf("profile of cached job: status %d: %s", status, body)
	}

	// A second distinct query serves tuples bit-identical to a serial
	// in-process run.
	var sub2 server.JobStatus
	a.json("POST", "/v1/jobs", server.SubmitRequest{Query: "B ov A", Method: "c-rep-l"}, &sub2, http.StatusAccepted)
	done2 := waitDone(sub2.ID)
	q, err := mwsjoin.ParseQuery("B ov A")
	if err != nil {
		t.Fatal(err)
	}
	want, err := mwsjoin.Run(q, []mwsjoin.Relation{relB, relA}, mwsjoin.ControlledReplicateLimit,
		&mwsjoin.Options{Reducers: 16, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if done2.OutputTuples != want.Stats.OutputTuples {
		t.Errorf("daemon run: %d tuples, serial run %d", done2.OutputTuples, want.Stats.OutputTuples)
	}

	info.stop()
	if err := <-runErr; err != nil {
		t.Fatalf("daemon shutdown: %v\n%s", err, errBuf.String())
	}
}
