package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs_total").Add(3)
	reg.Gauge("last_imbalance_x1000").Set(1500)
	h := reg.Histogram("reducer_pairs")
	h.Observe(1) // bucket 1 (le 1)
	h.Observe(3) // bucket 2 (le 3)
	h.Observe(3)

	var b strings.Builder
	reg.WritePrometheus(&b)
	got := b.String()
	want := `# TYPE jobs_total counter
jobs_total 3
# TYPE last_imbalance_x1000 gauge
last_imbalance_x1000 1500
# TYPE reducer_pairs histogram
reducer_pairs_bucket{le="0"} 0
reducer_pairs_bucket{le="1"} 1
reducer_pairs_bucket{le="3"} 3
reducer_pairs_bucket{le="+Inf"} 3
reducer_pairs_sum 7
reducer_pairs_count 3
`
	if got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPrometheusCumulative checks the le-buckets are cumulative and the
// +Inf bucket equals the count for a spread-out distribution.
func TestPrometheusCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("d")
	for _, v := range []int64{0, 1, 5, 1000, 1 << 20} {
		h.Observe(v)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `d_bucket{le="+Inf"} 5`) {
		t.Errorf("missing +Inf bucket with total count:\n%s", out)
	}
	// Cumulative counts never decrease down the bucket list.
	prev := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		var le string
		var c int64
		if _, err := fmt.Sscanf(strings.ReplaceAll(line, `{le="`, " "), "d_bucket %s %d", &le, &c); err != nil {
			continue
		}
		if c < prev {
			t.Fatalf("bucket counts not cumulative at %q:\n%s", line, out)
		}
		prev = c
	}
}

func TestServeMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dfs_reads_total").Add(11)
	reg.Histogram("sizes").Observe(64)
	prog := NewProgress()
	prog.Set("phase", "join")
	srv := httptest.NewServer(NewServeMux(reg, prog))
	defer srv.Close()

	body := get(t, srv.URL+"/metrics")
	if !strings.Contains(body, "dfs_reads_total 11") || !strings.Contains(body, "sizes_sum 64") {
		t.Errorf("/metrics missing counter or histogram:\n%s", body)
	}

	var progress map[string]any
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/progress")), &progress); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if progress["phase"] != "join" {
		t.Errorf("/progress = %v", progress)
	}

	if !strings.Contains(get(t, srv.URL+"/debug/pprof/"), "profile") {
		t.Error("/debug/pprof/ index not served")
	}
}

func TestListenAndServe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up").Add(1)
	addr, shutdown, err := ListenAndServe("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown() //nolint:errcheck
	if !strings.Contains(get(t, "http://"+addr+"/metrics"), "up 1") {
		t.Error("live server did not expose the counter")
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShutdownDrainsInFlightRequest starts a long-poll request, calls
// shutdown while the handler is still writing, and checks the request
// completes with its full body — the graceful-drain contract the
// daemon's shutdown path relies on.
func TestShutdownDrainsInFlightRequest(t *testing.T) {
	inFlight := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/longpoll", func(w http.ResponseWriter, _ *http.Request) {
		close(inFlight)
		<-release
		fmt.Fprint(w, "drained-ok")
	})
	addr, shutdown, err := ListenAndServeHandler("127.0.0.1:0", mux, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/longpoll")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- result{body: string(b), err: err}
	}()

	<-inFlight // the long-poll is now being handled
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- shutdown() }()

	// The shutdown must wait for the in-flight request: give it a moment
	// to (incorrectly) cut the connection, then let the handler finish.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown after handler completion: %v", err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request was cut off by shutdown: %v", r.err)
	}
	if r.body != "drained-ok" {
		t.Fatalf("in-flight request body = %q, want %q", r.body, "drained-ok")
	}
}

// TestShutdownDrainDeadline checks the drain is bounded: a handler that
// outlives the drain budget is forcibly cut and shutdown reports it.
func TestShutdownDrainDeadline(t *testing.T) {
	inFlight := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	mux := http.NewServeMux()
	mux.HandleFunc("/stuck", func(w http.ResponseWriter, _ *http.Request) {
		close(inFlight)
		<-release
	})
	addr, shutdown, err := ListenAndServeHandler("127.0.0.1:0", mux, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	go http.Get("http://" + addr + "/stuck") //nolint:errcheck // cut off deliberately
	<-inFlight
	if err := shutdown(); err == nil {
		t.Fatal("shutdown reported success despite a handler exceeding the drain budget")
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
