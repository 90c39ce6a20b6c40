package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHandlerObservabilityRoutes: with a registry the handler serves
// /metrics and the profiler index and nothing at /progress; without one
// it serves none of the three.
func TestHandlerObservabilityRoutes(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1})
	reg.Counter("dfs_bytes_read_total").Add(11)
	reg.Histogram("sizes").Observe(64)
	get := func(h http.Handler, path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}

	with := NewHandler(s, reg)
	if code, body := get(with, "/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "dfs_bytes_read_total 11") || !strings.Contains(body, "sizes_sum 64") ||
		!strings.Contains(body, "server_uptime_seconds") {
		t.Errorf("/metrics = %d, want 200 with the counter, the histogram and the uptime:\n%s", code, body)
	}
	if code, body := get(with, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d, want 200 with the profile index:\n%.300s", code, body)
	}
	if code, _ := get(with, "/progress"); code != http.StatusNotFound {
		t.Errorf("/progress = %d, want 404", code)
	}

	without := NewHandler(s, nil)
	for _, path := range []string{"/metrics", "/debug/pprof/", "/progress"} {
		if code, _ := get(without, path); code != http.StatusNotFound {
			t.Errorf("without a registry %s = %d, want 404", path, code)
		}
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
	addr, shutdown, err := ListenAndServe("127.0.0.1:0", mux, 5*time.Second)
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
	addr, shutdown, err := ListenAndServe("127.0.0.1:0", mux, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	go http.Get("http://" + addr + "/stuck") //nolint:errcheck // cut off deliberately
	<-inFlight
	if err := shutdown(); err == nil {
		t.Fatal("shutdown reported success despite a handler exceeding the drain budget")
	}
}
