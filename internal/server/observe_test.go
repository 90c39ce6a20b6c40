package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"mwsjoin/internal/metrics"
	"mwsjoin/internal/profile"
)

// TestServerProfileAndSlowlog: a completed job has a profile whose
// counters reconcile with its Stats, lands in the slowlog and the SLO
// histograms; a cache hit is SLO-observed but has nothing to profile.
func TestServerProfileAndSlowlog(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1})
	st := waitJob(t, s, submit(t, s, SubmitRequest{Query: "A ov B and B ov C", Method: "c-rep"}).ID)
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	if !st.HasProfile {
		t.Error("done job not marked HasProfile")
	}
	if st.E2EUS < st.ExecUS || st.ExecUS <= 0 {
		t.Errorf("latency breakdown inconsistent: wait %d exec %d e2e %d", st.QueueWaitUS, st.ExecUS, st.E2EUS)
	}

	p, err := s.Profile(st.ID)
	if err != nil {
		t.Fatalf("Profile(%s): %v", st.ID, err)
	}
	if p.Method != "c-rep" || p.Query != st.Query {
		t.Errorf("profile identity = %s %q, want c-rep %q", p.Method, p.Query, st.Query)
	}
	if p.IntermediatePairs != st.Stats.IntermediatePairs() || p.OutputTuples != st.Stats.OutputTuples {
		t.Errorf("profile counters diverge from job stats: %d/%d vs %d/%d",
			p.IntermediatePairs, p.OutputTuples, st.Stats.IntermediatePairs(), st.Stats.OutputTuples)
	}
	if len(p.Rounds) != len(st.Stats.Rounds) {
		t.Errorf("profile has %d rounds, stats %d", len(p.Rounds), len(st.Stats.Rounds))
	}
	if p.UnfinishedSpans != 0 {
		t.Errorf("clean run reports %d unfinished spans", p.UnfinishedSpans)
	}

	spans, err := s.TraceSpans(st.ID)
	if err != nil || len(spans) == 0 {
		t.Fatalf("TraceSpans = %d spans, %v", len(spans), err)
	}
	var buf bytes.Buffer
	if err := profile.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if err := profile.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Errorf("job trace fails Chrome schema validation: %v", err)
	}

	slow := s.Slowlog()
	if len(slow) != 1 || slow[0].ID != st.ID {
		t.Fatalf("slowlog = %+v, want the one executed job", slow)
	}
	if slow[0].Profile != "/v1/jobs/"+st.ID+"/profile" || slow[0].E2EUS != st.E2EUS {
		t.Errorf("slowlog entry %+v does not match job status", slow[0])
	}
	for _, h := range []string{
		"server_slo_queue_wait_us", "server_slo_exec_us", "server_slo_e2e_us",
		"server_slo_queue_wait_us_c_rep", "server_slo_exec_us_c_rep", "server_slo_e2e_us_c_rep",
	} {
		if n := reg.Histogram(h).Snapshot().Count; n != 1 {
			t.Errorf("%s count = %d, want 1", h, n)
		}
	}

	if _, err := s.Profile("j999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Profile(unknown) = %v, want ErrNotFound", err)
	}

	// Cache hit: SLO-observed end-to-end, but no execution to profile
	// and no slowlog entry.
	hit := submit(t, s, SubmitRequest{Query: "A ov B and B ov C", Method: "c-rep"})
	if !hit.Cached {
		t.Fatal("repeat submission missed the cache")
	}
	if _, err := s.Profile(hit.ID); !errors.Is(err, ErrNoProfile) {
		t.Errorf("Profile(cached) = %v, want ErrNoProfile", err)
	}
	if _, err := s.TraceSpans(hit.ID); !errors.Is(err, ErrNoProfile) {
		t.Errorf("TraceSpans(cached) = %v, want ErrNoProfile", err)
	}
	if len(s.Slowlog()) != 1 {
		t.Error("cache hit landed in the slowlog")
	}
	if n := reg.Histogram("server_slo_e2e_us").Snapshot().Count; n != 2 {
		t.Errorf("e2e histogram count after cache hit = %d, want 2", n)
	}
	if n := reg.Histogram("server_slo_exec_us").Snapshot().Count; n != 1 {
		t.Errorf("exec histogram observed the cache hit: count %d, want 1", n)
	}
}

// TestSlowlogOrderAndCap: entries sort slowest-first and the log keeps
// only the configured top-N.
func TestSlowlogOrderAndCap(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, SlowlogSize: 2})
	queries := []string{"A ov B", "A ov B and B ov C", "A ov B and B ov C and C ov D"}
	for _, q := range queries {
		if st := waitJob(t, s, submit(t, s, SubmitRequest{Query: q, Method: "c-rep-l"}).ID); st.State != StateDone {
			t.Fatalf("%q: state %s: %s", q, st.State, st.Error)
		}
	}
	slow := s.Slowlog()
	if len(slow) != 2 {
		t.Fatalf("slowlog holds %d entries, want cap 2", len(slow))
	}
	if slow[0].E2EUS < slow[1].E2EUS {
		t.Errorf("slowlog not sorted slowest-first: %d < %d", slow[0].E2EUS, slow[1].E2EUS)
	}
}

// TestServerStatusInfo checks the /v1/status snapshot fields.
func TestServerStatusInfo(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 3, Version: "v-test"})
	waitJob(t, s, submit(t, s, SubmitRequest{Query: "A ov B", Method: "c-rep-l"}).ID)
	info := s.StatusInfo()
	if info.Version != "v-test" || info.GoVersion != runtime.Version() {
		t.Errorf("identity = %s/%s", info.Version, info.GoVersion)
	}
	if info.UptimeSeconds < 0 || info.StartTime == "" {
		t.Errorf("uptime %f, start %q", info.UptimeSeconds, info.StartTime)
	}
	if info.Relations != 4 || info.PoolWorkers != 3 {
		t.Errorf("relations %d pool workers %d, want 4/3", info.Relations, info.PoolWorkers)
	}
	if info.Workers != nil {
		t.Errorf("cluster workers section on a single-process server: %+v", info.Workers)
	}
	if info.Jobs[StateDone] != 1 || info.SlowlogEntries != 1 {
		t.Errorf("jobs %v slowlog %d", info.Jobs, info.SlowlogEntries)
	}
	if v := reg.Gauge("server_build_info_v_test").Value(); v != 1 {
		t.Errorf("build info gauge = %d, want 1", v)
	}
}

// TestHTTPObservabilityEndpoints drives the new HTTP surface end to
// end: profile and Chrome-trace fetch for a done job, 409 for a cached
// one, slowlog, status, and the SLO/uptime/build metrics on /metrics.
func TestHTTPObservabilityEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := newTestServer(t, Config{Workers: 1, Version: "1.2.3-rc1", Metrics: reg})
	srv := httptest.NewServer(NewHandler(s, reg))
	defer srv.Close()

	st := waitJob(t, s, submit(t, s, SubmitRequest{Query: "A ov B and B ov C", Method: "c-rep-l"}).ID)
	get := func(path string, want int) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d: %s", path, resp.StatusCode, want, body)
		}
		return body
	}

	var p profile.Profile
	if err := json.Unmarshal(get("/v1/jobs/"+st.ID+"/profile", http.StatusOK), &p); err != nil {
		t.Fatalf("profile payload: %v", err)
	}
	if p.Method != "c-rep-l" || p.OutputTuples != st.OutputTuples {
		t.Errorf("profile over HTTP = %s/%d, want c-rep-l/%d", p.Method, p.OutputTuples, st.OutputTuples)
	}
	if err := profile.ValidateChromeTrace(get("/v1/jobs/"+st.ID+"/trace", http.StatusOK)); err != nil {
		t.Errorf("/trace payload fails Chrome schema validation: %v", err)
	}

	hit := submit(t, s, SubmitRequest{Query: "A ov B and B ov C", Method: "c-rep-l"})
	if body := get("/v1/jobs/"+hit.ID+"/profile", http.StatusConflict); !bytes.Contains(body, []byte("no_profile")) {
		t.Errorf("cached-job profile error body: %s", body)
	}

	var slow []SlowlogEntry
	if err := json.Unmarshal(get("/v1/slowlog", http.StatusOK), &slow); err != nil || len(slow) != 1 {
		t.Errorf("slowlog payload: %v (%d entries)", err, len(slow))
	}
	var info ServiceStatus
	if err := json.Unmarshal(get("/v1/status", http.StatusOK), &info); err != nil || info.Version != "1.2.3-rc1" {
		t.Errorf("status payload: %v, version %q", err, info.Version)
	}

	metricsBody := string(get("/metrics", http.StatusOK))
	for _, want := range []string{
		"server_slo_e2e_us", "server_slo_queue_wait_us", "server_slo_exec_us",
		"server_uptime_seconds", "server_build_info_" + metrics.SanitizeName("1.2.3-rc1"),
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestHTTPSubmitBodyBound: POST /v1/jobs reads at most maxSubmitBytes of
// body and answers a longer one 413 in the server's error envelope,
// without submitting anything.
func TestHTTPSubmitBodyBound(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	h := NewHandler(s, nil)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
		return rec
	}
	huge := `{"query": "` + strings.Repeat("A", maxSubmitBytes) + `"}`
	rec := post(huge)
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("413 body is not the error envelope: %v: %s", err, rec.Body.Bytes())
	}
	if rec.Code != http.StatusRequestEntityTooLarge || body.Error.Code != "body_too_large" {
		t.Errorf("oversized submit = %d %q, want 413 body_too_large", rec.Code, body.Error.Code)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("oversized submit left %d jobs behind", n)
	}
	if rec := post(`{"query": "A ov B and B ov C", "method": "c-rep-l"}`); rec.Code != http.StatusAccepted {
		t.Errorf("ordinary submit after it = %d, want 202: %s", rec.Code, rec.Body.Bytes())
	}
}
