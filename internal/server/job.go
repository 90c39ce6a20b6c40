package server

import (
	"context"
	"time"

	"mwsjoin/internal/grid"
	"mwsjoin/internal/profile"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
	"mwsjoin/internal/trace"
)

// State is a job's lifecycle state. Transitions are monotone:
// queued → running → {done, failed, cancelled}, with queued → cancelled
// as the only shortcut (a job cancelled before a worker picked it up).
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one submitted query execution. All mutable fields are guarded
// by the owning Server's mutex; handed-out snapshots are JobStatus
// values.
type Job struct {
	id       string
	seq      int64 // submission order, the FIFO tiebreak
	queryTxt string
	q        *query.Query
	method   spatial.Method
	rels     []spatial.Relation
	priority int
	// cost is the admission-control cost: the EXPLAIN-predicted total
	// intermediate pairs (spatial.Predict). Cheaper jobs of equal
	// priority run first, and the in-flight cost budget throttles on it.
	cost   float64
	rounds int // predicted chain length, the progress denominator
	key    cacheKey
	// part is the reducer grid the job was priced on at admission and
	// runs on (nil for brute-force, which prices no plan).
	part *grid.Partitioning
	// planned marks an "auto" submission: method is the cost-based
	// planner's pick, planCost its scalar cost, and the job runs in the
	// planner's cost-based join order. The rejected alternatives are
	// not kept.
	planned  bool
	planCost float64

	// SLO timestamps: queuedAt at admission, startedAt when a worker
	// claims the job, finishedAt at the terminal transition.
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time

	ctx    context.Context
	cancel context.CancelCauseFunc

	state       State
	stepsDone   int
	currentStep string
	cached      bool
	res         *result
	err         error
	tracer      *trace.Tracer
	// prof is the execution profile, assembled from the tracer and the
	// result stats when the job completes successfully.
	prof *profile.Profile
	// done is closed when the job reaches a terminal state.
	done chan struct{}
}

// JobStatus is a point-in-time snapshot of a job, the GET /v1/jobs/{id}
// payload.
type JobStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Query string `json:"query"`
	// Method is the method that runs (or ran). For an "auto"
	// submission it is the planner's pick and Planned is true;
	// PlanCost then carries the chosen plan's scalar cost.
	Method   string  `json:"method"`
	Planned  bool    `json:"planned,omitempty"`
	PlanCost float64 `json:"plan_cost,omitempty"`
	Priority int     `json:"priority"`
	// PredictedPairs is the EXPLAIN-based admission cost the scheduler
	// queued the job by; PredictedRounds is the expected chain length.
	// Both are zero for a pinned-method cache hit, which is answered
	// before anything is priced.
	PredictedPairs  float64 `json:"predicted_pairs"`
	PredictedRounds int     `json:"predicted_rounds"`
	// StepsDone / CurrentStep report chain progress while running: the
	// number of chain steps that have begun and the name of the latest.
	StepsDone   int    `json:"steps_done"`
	CurrentStep string `json:"current_step,omitempty"`
	// Cached marks a submission served entirely from the result cache
	// (no map-reduce job ran).
	Cached bool `json:"cached"`
	// OutputTuples and Stats are set once the job is done.
	OutputTuples int64          `json:"output_tuples"`
	Stats        *spatial.Stats `json:"stats,omitempty"`
	Error        string         `json:"error,omitempty"`
	// SLO latency breakdown, in microseconds: queue wait and execution
	// appear once the job has started, end-to-end once it is terminal.
	QueueWaitUS int64 `json:"queue_wait_us,omitempty"`
	ExecUS      int64 `json:"exec_us,omitempty"`
	E2EUS       int64 `json:"e2e_us,omitempty"`
	// HasProfile marks a job whose execution profile is available at
	// /v1/jobs/{id}/profile (and its trace at .../trace).
	HasProfile bool `json:"has_profile,omitempty"`
}

// status snapshots the job; the caller must hold the server mutex.
func (j *Job) status() *JobStatus {
	st := &JobStatus{
		ID:              j.id,
		State:           j.state,
		Query:           j.queryTxt,
		Method:          j.method.String(),
		Planned:         j.planned,
		PlanCost:        j.planCost,
		Priority:        j.priority,
		PredictedPairs:  j.cost,
		PredictedRounds: j.rounds,
		StepsDone:       j.stepsDone,
		CurrentStep:     j.currentStep,
		Cached:          j.cached,
	}
	if j.res != nil {
		st.OutputTuples = j.res.stats.OutputTuples
		stats := j.res.stats
		st.Stats = &stats
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.startedAt.IsZero() {
		st.QueueWaitUS = j.startedAt.Sub(j.queuedAt).Microseconds()
		if !j.finishedAt.IsZero() {
			st.ExecUS = j.finishedAt.Sub(j.startedAt).Microseconds()
		}
	}
	if !j.finishedAt.IsZero() {
		st.E2EUS = j.finishedAt.Sub(j.queuedAt).Microseconds()
	}
	st.HasProfile = j.prof != nil
	return st
}
