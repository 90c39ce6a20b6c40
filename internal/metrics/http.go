// HTTP exposition of a Registry over the standard library only: the
// Prometheus text format on /metrics (consumable by any scraper), the
// runtime profiler on /debug/pprof/* and a /progress JSON snapshot for
// long-running bench sweeps. The CLIs mount all three behind one -serve
// flag.
package metrics

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative le-labelled bucket series plus
// _sum and _count, all in sorted name order so output is deterministic
// for a fixed registry state.
func (r *Registry) WritePrometheus(w io.Writer) {
	s := r.Snapshot()
	for _, name := range names(s.Counters) {
		n := SanitizeName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[name])
	}
	for _, name := range names(s.Gauges) {
		n := SanitizeName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[name])
	}
	for _, name := range names(s.Histograms) {
		n := SanitizeName(name)
		h := s.Histograms[name]
		fmt.Fprintf(w, "# TYPE %s histogram\n", n)
		// Cumulative buckets, emitted up to the last non-empty one; the
		// +Inf bucket always equals the total count.
		last := -1
		for i, c := range h.Buckets {
			if c > 0 {
				last = i
			}
		}
		var cum int64
		for i := 0; i <= last; i++ {
			cum += h.Buckets[i]
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, BucketUpper(i), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", n, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count)
	}
}

// Handler serves the Prometheus text format for the registry.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// ProgressHandler serves the progress board as a JSON object.
func ProgressHandler(p *Progress) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(p.Snapshot()) //nolint:errcheck // best-effort over HTTP
	})
}

// NewServeMux mounts the full observability surface:
//
//	/metrics        Prometheus text format
//	/debug/pprof/*  the Go runtime profiler
//	/progress       JSON progress board (empty object when p is nil)
func NewServeMux(r *Registry, p *Progress) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.Handle("/progress", ProgressHandler(p))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DefaultDrainTimeout bounds the graceful shutdown of the observability
// servers: in-flight requests get this long to complete before the
// listener is forcibly closed.
const DefaultDrainTimeout = 5 * time.Second

// ListenAndServe starts the observability server on addr (":0" picks a
// free port) and returns the bound address plus a shutdown function.
// The server runs until shutdown is called or the process exits — the
// CLIs start it before a run so counters are scrapeable live. Shutdown
// drains gracefully: the listener stops accepting immediately, but
// requests already in flight (a slow scrape, a pprof profile) are given
// DefaultDrainTimeout to complete before being cut off.
func ListenAndServe(addr string, r *Registry, p *Progress) (bound string, shutdown func() error, err error) {
	return ListenAndServeHandler(addr, NewServeMux(r, p), DefaultDrainTimeout)
}

// ListenAndServeHandler starts an HTTP server for an arbitrary handler
// on addr (":0" picks a free port) with a bounded graceful shutdown: the
// returned shutdown function closes the listener, waits up to drain for
// in-flight requests to finish, then forcibly closes whatever remains
// and reports the drain failure. A non-positive drain closes
// immediately (the pre-graceful behaviour). The join daemon serves its
// job API through this so an operator shutdown never truncates an
// in-flight long-poll mid-response.
func ListenAndServeHandler(addr string, h http.Handler, drain time.Duration) (bound string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // closed by shutdown
	shutdown = func() error {
		if drain <= 0 {
			return srv.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close() //nolint:errcheck // the drain already failed; force-close the stragglers
			return fmt.Errorf("metrics: graceful drain incomplete after %v: %w", drain, err)
		}
		return nil
	}
	return ln.Addr().String(), shutdown, nil
}
