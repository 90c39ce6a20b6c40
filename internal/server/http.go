package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"mwsjoin/internal/metrics"
	"mwsjoin/internal/profile"
)

// NewHandler mounts the service's JSON API:
//
//	POST   /v1/jobs           submit a query  → 202 JobStatus (200 on cache hit)
//	GET    /v1/jobs           list all jobs   → 200 [JobStatus]
//	GET    /v1/jobs/{id}      job status      → 200 JobStatus
//	GET    /v1/jobs/{id}/result?offset=&limit=  paginated tuples → 200 ResultPage
//	GET    /v1/jobs/{id}/profile  execution profile → 200 profile.Profile
//	GET    /v1/jobs/{id}/trace    Chrome trace-event JSON → 200
//	DELETE /v1/jobs/{id}      cancel          → 200 JobStatus
//	GET    /v1/relations      registered data → 200 [RelationInfo]
//	GET    /v1/slowlog        slow-query log  → 200 [SlowlogEntry]
//	GET    /v1/status         service status  → 200 ServiceStatus
//	GET    /v1/workers        cluster roster  → 200 ClusterWorkers (404 without a cluster)
//
// plus, when reg is non-nil, the observability surface: /metrics (the
// registry in Prometheus text; a scrape refreshes the
// server_uptime_seconds gauge) and /debug/pprof/* (the Go profiler,
// routed explicitly on this handler's own mux). Errors
// are JSON envelopes {"error": {"code", "message"}}: 400 for malformed
// requests, 404 for unknown jobs, 409 for state conflicts (no result
// yet, no profile yet, cancel after finish), 413 for a submit body over
// maxSubmitBytes, 429 with Retry-After for admission rejections, 503
// when draining.
func NewHandler(s *Server, reg *metrics.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
					"request body exceeds "+strconv.FormatInt(tooLarge.Limit, 10)+" bytes")
				return
			}
			writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
			return
		}
		st, err := s.Submit(req)
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		if st.Cached {
			writeJSON(w, http.StatusOK, st)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			writeJobError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		offset, err := queryInt(r, "offset", 0)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		limit, err := queryInt(r, "limit", 0)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		id := r.PathValue("id")
		rows, err := s.resultRows(id)
		if err != nil {
			writeJobError(w, err)
			return
		}
		off, hi := pageBounds(rows.Len(), offset, limit)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		writeResultPage(w, id, rows, off, hi) //nolint:errcheck // best-effort over HTTP
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			writeJobError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/profile", func(w http.ResponseWriter, r *http.Request) {
		p, err := s.Profile(r.PathValue("id"))
		if err != nil {
			writeJobError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, p)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		spans, err := s.TraceSpans(r.PathValue("id"))
		if err != nil {
			writeJobError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		profile.WriteChromeTrace(w, spans) //nolint:errcheck // best-effort over HTTP
	})
	mux.HandleFunc("GET /v1/relations", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Relations())
	})
	mux.HandleFunc("GET /v1/slowlog", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Slowlog())
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.StatusInfo())
	})
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, _ *http.Request) {
		cw := s.clusterWorkers()
		if cw == nil {
			writeError(w, http.StatusNotFound, "no_cluster", "this server runs the in-process engine; no cluster coordinator attached")
			return
		}
		writeJSON(w, http.StatusOK, cw)
	})
	if reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			// Every scrape sees a fresh uptime (a plain gauge would freeze
			// at its last Set).
			reg.Gauge("server_uptime_seconds").Set(int64(time.Since(s.start).Seconds()))
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// ListenAndServe starts an HTTP server for h on addr (":0" picks a free
// port) and returns the bound address plus a shutdown function with a
// bounded graceful drain: it closes the listener, waits up to drain for
// in-flight requests to finish, then forcibly closes whatever remains
// and reports the drain failure. A non-positive drain closes
// immediately. An operator shutdown therefore never truncates an
// in-flight long-poll mid-response.
func ListenAndServe(addr string, h http.Handler, drain time.Duration) (bound string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("server: listen %s: %w", addr, err)
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
			return fmt.Errorf("server: graceful drain incomplete after %v: %w", drain, err)
		}
		return nil
	}
	return ln.Addr().String(), shutdown, nil
}

// maxSubmitBytes bounds the body of POST /v1/jobs. A SubmitRequest is a
// query text and a few scalars — relations are named, never shipped —
// so 1 MiB is three orders above any the repository builds.
const maxSubmitBytes = 1 << 20

// errorBody is the JSON error envelope.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best-effort over HTTP
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = msg
	writeJSON(w, status, body)
}

// writeSubmitError maps Submit errors: structured admission rejections
// become 429 with a Retry-After hint, drain rejections 503, unknown
// relations and parse errors 400.
func writeSubmitError(w http.ResponseWriter, err error) {
	var adm *AdmissionError
	switch {
	case errors.As(err, &adm):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue_full", err.Error())
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "shutting_down", err.Error())
	default:
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
	}
}

// writeJobError maps job-inspection errors onto 404/409.
func writeJobError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, ErrJobNotDone):
		writeError(w, http.StatusConflict, "no_result", err.Error())
	case errors.Is(err, ErrJobFinished):
		writeError(w, http.StatusConflict, "already_finished", err.Error())
	case errors.Is(err, ErrNoProfile):
		writeError(w, http.StatusConflict, "no_profile", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, errors.New("query parameter " + name + " must be an integer")
	}
	return n, nil
}
