package server

import (
	"encoding/json"
	"errors"
	"net/http"
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
// plus the observability surface of metrics.NewServeMux (/metrics,
// /debug/pprof/*, /progress) when reg is non-nil; scraping
// any of those paths refreshes the server_uptime_seconds gauge. Errors
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
		page, err := s.Result(r.PathValue("id"), offset, limit)
		if err != nil {
			writeJobError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, page)
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
		obs := metrics.NewServeMux(reg, nil)
		// Wrap the scrape surface so every scrape sees a fresh uptime
		// gauge (a plain gauge would freeze at its last Set).
		wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			reg.Gauge("server_uptime_seconds").Set(int64(time.Since(s.start).Seconds()))
			obs.ServeHTTP(w, r)
		})
		for _, p := range []string{"/metrics", "/debug/pprof/", "/progress"} {
			mux.Handle(p, wrapped)
		}
	}
	return mux
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
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort over HTTP
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
