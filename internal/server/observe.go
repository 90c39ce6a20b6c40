package server

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"mwsjoin/internal/cluster"
	"mwsjoin/internal/metrics"
	"mwsjoin/internal/profile"
	"mwsjoin/internal/trace"
)

// ErrNoProfile reports a profile/trace request for a job that has none:
// still in flight, failed before producing stats, or served from the
// result cache (a cache hit runs no map-reduce work to profile).
var ErrNoProfile = errors.New("server: job has no profile")

// DefaultSlowlogSize bounds the slow-query log when Config.SlowlogSize
// is zero.
const DefaultSlowlogSize = 32

// SlowlogEntry is one slow-query record: the job's latency breakdown
// with a reference to its full profile.
type SlowlogEntry struct {
	ID    string `json:"id"`
	Query string `json:"query"`
	// Method is the method that ran; Planned marks it as the cost-based
	// planner's pick (an "auto" submission) rather than a client's.
	Method            string `json:"method"`
	Planned           bool   `json:"planned,omitempty"`
	State             State  `json:"state"`
	QueueWaitUS       int64  `json:"queue_wait_us"`
	ExecUS            int64  `json:"exec_us"`
	E2EUS             int64  `json:"e2e_us"`
	OutputTuples      int64  `json:"output_tuples"`
	IntermediatePairs int64  `json:"intermediate_pairs"`
	// Profile is the GET path of the job's full profile, when one
	// exists.
	Profile string `json:"profile,omitempty"`
}

// ServiceStatus is the GET /v1/status payload: build/version identity
// plus a coarse live snapshot for fleet debugging.
type ServiceStatus struct {
	Version       string          `json:"version"`
	GoVersion     string          `json:"go_version"`
	StartTime     string          `json:"start_time"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Jobs          map[State]int64 `json:"jobs"`
	QueueDepth    int64           `json:"queue_depth"`
	Relations     int             `json:"relations"`
	// PoolWorkers is the in-process worker-pool size (Config.Workers).
	PoolWorkers int `json:"pool_workers"`
	// Workers describes the cluster roster when the server dispatches
	// to a coordinator; absent on a single-process server.
	Workers        *ClusterWorkers `json:"workers,omitempty"`
	SlowlogEntries int             `json:"slowlog_entries"`
}

// ClusterWorkers is the status `workers` section: the coordinator's
// roster with liveness and load at a glance.
type ClusterWorkers struct {
	Count    int                    `json:"count"`
	Alive    int                    `json:"alive"`
	Dead     int                    `json:"dead"`
	InFlight int                    `json:"in_flight_tasks"`
	Workers  []cluster.WorkerStatus `json:"workers"`
}

// clusterWorkers assembles the status section from the coordinator's
// roster; nil without a cluster.
func (s *Server) clusterWorkers() *ClusterWorkers {
	coord := s.cfg.Cluster
	if coord == nil {
		return nil
	}
	cw := &ClusterWorkers{Workers: coord.Workers()}
	cw.Count = len(cw.Workers)
	for _, ws := range cw.Workers {
		if ws.Alive {
			cw.Alive++
			cw.InFlight += ws.InFlight
		} else {
			cw.Dead++
		}
	}
	return cw
}

// observeSLO records a finished (or cache-served) job into the SLO
// histograms: queue-wait, execution and end-to-end latency, aggregate
// and per method. Histogram operations are concurrency-safe; the
// caller may hold the server mutex.
func (s *Server) observeSLO(j *Job, finished time.Time) {
	method := metrics.SanitizeName(j.method.String())
	if !j.startedAt.IsZero() {
		wait := j.startedAt.Sub(j.queuedAt).Microseconds()
		exec := finished.Sub(j.startedAt).Microseconds()
		s.reg.Histogram("server_slo_queue_wait_us").Observe(wait)
		s.reg.Histogram("server_slo_queue_wait_us_" + method).Observe(wait)
		s.reg.Histogram("server_slo_exec_us").Observe(exec)
		s.reg.Histogram("server_slo_exec_us_" + method).Observe(exec)
	}
	e2e := finished.Sub(j.queuedAt).Microseconds()
	s.reg.Histogram("server_slo_e2e_us").Observe(e2e)
	s.reg.Histogram("server_slo_e2e_us_" + method).Observe(e2e)
}

// recordSlowlog inserts a job that actually ran into the slow-query
// log, keeping the top-N by end-to-end latency. Caller holds the
// server mutex.
func (s *Server) recordSlowlog(j *Job, finished time.Time) {
	if s.slowlogSize <= 0 || j.startedAt.IsZero() {
		return
	}
	e := SlowlogEntry{
		ID:          j.id,
		Query:       j.queryTxt,
		Method:      j.method.String(),
		Planned:     j.planned,
		State:       j.state,
		QueueWaitUS: j.startedAt.Sub(j.queuedAt).Microseconds(),
		ExecUS:      finished.Sub(j.startedAt).Microseconds(),
		E2EUS:       finished.Sub(j.queuedAt).Microseconds(),
	}
	if j.res != nil {
		e.OutputTuples = j.res.stats.OutputTuples
		e.IntermediatePairs = j.res.stats.IntermediatePairs()
	}
	if j.prof != nil {
		e.Profile = "/v1/jobs/" + j.id + "/profile"
	}
	i := sort.Search(len(s.slowlog), func(i int) bool { return s.slowlog[i].E2EUS < e.E2EUS })
	s.slowlog = append(s.slowlog, SlowlogEntry{})
	copy(s.slowlog[i+1:], s.slowlog[i:])
	s.slowlog[i] = e
	if len(s.slowlog) > s.slowlogSize {
		s.slowlog = s.slowlog[:s.slowlogSize]
	}
	s.reg.Gauge("server_slo_slowlog_entries").Set(int64(len(s.slowlog)))
}

// Slowlog snapshots the slow-query log, slowest first.
func (s *Server) Slowlog() []SlowlogEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SlowlogEntry(nil), s.slowlog...)
}

// Profile returns a done job's execution profile.
func (s *Server) Profile(id string) (*profile.Profile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.prof == nil {
		return nil, errNoProfileFor(j)
	}
	return j.prof, nil
}

// TraceSpans returns the span snapshot of a job that ran (done, failed
// or cancelled after starting) — the input of the Chrome trace export.
func (s *Server) TraceSpans(id string) ([]trace.Span, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.tracer == nil || j.startedAt.IsZero() || !j.state.terminal() {
		return nil, errNoProfileFor(j)
	}
	return j.tracer.Spans(), nil
}

// errNoProfileFor decorates ErrNoProfile with the job's state. Caller
// holds the server mutex.
func errNoProfileFor(j *Job) error {
	if j.cached {
		return fmt.Errorf("%w (served from the result cache; no execution ran)", ErrNoProfile)
	}
	return fmt.Errorf("%w (state %s)", ErrNoProfile, j.state)
}

// StatusInfo snapshots the service identity and coarse state, and
// refreshes the uptime gauge as a side effect.
func (s *Server) StatusInfo() ServiceStatus {
	uptime := time.Since(s.start)
	s.reg.Gauge("server_uptime_seconds").Set(int64(uptime.Seconds()))
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ServiceStatus{
		Version:        s.version,
		GoVersion:      runtime.Version(),
		StartTime:      s.start.UTC().Format(time.RFC3339),
		UptimeSeconds:  uptime.Seconds(),
		Jobs:           make(map[State]int64, len(s.stateCounts)),
		QueueDepth:     s.stateCounts[StateQueued],
		Relations:      len(s.rels),
		PoolWorkers:    s.cfg.Workers,
		Workers:        s.clusterWorkers(),
		SlowlogEntries: len(s.slowlog),
	}
	for state, n := range s.stateCounts {
		st.Jobs[state] = n
	}
	return st
}
