// Package server implements the multi-query join service: a long-lived
// scheduler that executes many concurrent multi-way spatial join
// queries against named, pre-registered relations on the simulated
// map-reduce cluster.
//
// Architecture (DESIGN.md §5):
//
//   - a bounded worker pool runs at most Config.Workers queries at
//     once; everything else waits in a priority queue ordered by
//     (priority desc, EXPLAIN-predicted cost asc, submission order);
//   - admission control is EXPLAIN-based: each submission is costed
//     with spatial.PlanQuery before it is queued, the queue is bounded by
//     Config.QueueLimit (full → a structured *AdmissionError), and an
//     optional Config.CostBudget throttles the total predicted
//     intermediate pairs in flight;
//   - results are cached in a byte-budgeted LRU keyed by (canonical
//     query text, method, dataset fingerprint vector), so a repeated
//     query is served without running a single map-reduce job;
//   - every job runs under its own context.Context, threaded through
//     the chain and engine layers, so cancellation (DELETE
//     /v1/jobs/{id}, drain deadlines) stops the chain within one job
//     boundary and charges no further DFS or shuffle accounting;
//   - Close drains gracefully: submissions are rejected, queued jobs
//     are cancelled, running jobs get the context's grace period to
//     finish before their contexts are cancelled.
//
// All server_* metrics land on the registry passed in Config.Metrics
// (queue depth, per-state job gauges, admission rejections, cache
// hit/miss counts and bytes).
package server

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mwsjoin/internal/cluster"
	"mwsjoin/internal/dataset"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/metrics"
	"mwsjoin/internal/profile"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
	"mwsjoin/internal/trace"
)

// DefaultCacheBytes is the result-cache budget used when
// Config.CacheBytes is zero.
const DefaultCacheBytes = 64 << 20

// Config tunes the service.
type Config struct {
	// Workers is the maximum number of concurrently running queries
	// (the worker-pool size). Default 2.
	Workers int
	// QueueLimit bounds the number of queued (admitted but not yet
	// running) jobs; a submission finding the queue full is rejected
	// with a *AdmissionError. Default 64.
	QueueLimit int
	// CostBudget, when positive, bounds the sum of the EXPLAIN-predicted
	// intermediate pairs of the jobs running at once: the queue head is
	// held back while it would push the in-flight total over the
	// budget (unless nothing is running, so oversized jobs still run —
	// alone). Zero means no cost throttling beyond the worker count.
	CostBudget float64
	// CacheBytes is the result-cache budget: 0 picks
	// DefaultCacheBytes, negative disables caching.
	CacheBytes int64
	// Reducers is the per-job reducer-grid size (perfect square for the
	// uniform scheme, any positive count for adaptive); 0 uses the
	// paper's 64. Every job of the service, pinned or "auto", in process
	// or on the cluster, is priced and run on this one grid.
	Reducers int
	// Partition selects the per-job partitioning scheme
	// (spatial.PartitionUniform or spatial.PartitionAdaptive), for
	// pinned and "auto" jobs alike. The partitioning is resolved at
	// admission and reused by the run, so EXPLAIN-based admission prices
	// the grid actually executed. Results are bit-identical across
	// schemes, so cached entries stay valid regardless of the scheme
	// they were computed under.
	Partition spatial.PartitionScheme
	// SplitThreshold tunes the adaptive scheme (≤ 0 = default 1.0).
	SplitThreshold float64
	// Parallelism bounds each job's concurrent map/reduce tasks
	// (mapreduce.Config.Parallelism); 0 uses the engine default.
	Parallelism int
	// Metrics receives the server_* metrics plus the engine, chain and
	// DFS series of every job that succeeds, in process or on the
	// cluster, published from its Stats when it ends. May be nil.
	Metrics *metrics.Registry
	// Version is the build/version string reported by GET /v1/status and
	// the server_build_info_* gauge. Empty means "dev".
	Version string
	// SlowlogSize bounds the slow-query log (the top-N jobs by
	// end-to-end latency, GET /v1/slowlog). 0 picks DefaultSlowlogSize,
	// negative disables the slowlog.
	SlowlogSize int
	// Cluster, when non-nil, dispatches every job to the distributed
	// coordinator/worker runtime instead of the in-process engine: the
	// coordinator ships the query and relations to its registered
	// workers, which execute the job chain in SPMD lockstep with a
	// network shuffle. Results are bit-identical to in-process runs
	// (the coordinator cross-checks a tuple hash over the roster), so
	// the result cache stays valid across both paths. Cluster jobs
	// carry no execution profile or trace (the spans live on the
	// workers); GET /v1/jobs/{id}/profile returns 409 for them.
	Cluster *cluster.Coordinator
	// NumMappers is the per-job mapper count. Cluster dispatch needs it
	// pinned (the engine's GOMAXPROCS default would differ across
	// heterogeneous workers); it defaults to 8 when a Cluster is set
	// and is otherwise passed through as-is (0 = engine default).
	NumMappers int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.SlowlogSize == 0 {
		c.SlowlogSize = DefaultSlowlogSize
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	if c.Cluster != nil && c.NumMappers <= 0 {
		c.NumMappers = 8
	}
	return c
}

// Errors returned by the job-inspection API, mapped onto HTTP statuses
// by the handler layer.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("server: no such job")
	// ErrJobNotDone reports a result request for a job that has not
	// (successfully) finished.
	ErrJobNotDone = errors.New("server: job has no result")
	// ErrJobFinished reports a cancel request for a job that already
	// reached done or failed.
	ErrJobFinished = errors.New("server: job already finished")
	// ErrClosed reports a submission to a draining/closed server.
	ErrClosed = errors.New("server: shutting down, not accepting jobs")
)

// AdmissionError is the structured queue-full rejection: the caller can
// tell how deep the queue is and retry with backoff (HTTP 429).
type AdmissionError struct {
	QueueDepth int
	QueueLimit int
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("server: admission queue full (%d/%d queued); retry later", e.QueueDepth, e.QueueLimit)
}

// UnknownRelationError reports a query slot with no registered
// relation.
type UnknownRelationError struct{ Slot string }

func (e *UnknownRelationError) Error() string {
	return fmt.Sprintf("server: no registered relation for query slot %q", e.Slot)
}

// SubmitRequest is one query submission (the POST /v1/jobs body). The
// query's slot names bind to registered relation names.
type SubmitRequest struct {
	Query string `json:"query"`
	// Method is a spatial method name ("c-rep-l", "2-way-cascade",
	// ...); empty picks c-rep-l, the recommended default. "auto"
	// delegates the choice to the cost-based planner: the cheapest
	// method under the planner's cost model, on the service's grid, is
	// priced at admission and executed, and the job's status and
	// slowlog record the planner's pick.
	Method string `json:"method,omitempty"`
	// Priority orders the queue: higher runs first. Ties run cheapest
	// predicted cost first, then submission order.
	Priority int `json:"priority,omitempty"`
}

// RelationInfo describes one registered relation (GET /v1/relations).
type RelationInfo struct {
	Name    string `json:"name"`
	Records int    `json:"records"`
	// Fingerprint is the order-independent content hash of the
	// relation's records (dataset.Fingerprint), rendered as 16 hex
	// digits — the dataset component of the result-cache key.
	Fingerprint string `json:"fingerprint"`
}

// relEntry is a registered relation plus its content fingerprint. gen
// numbers the registration, so a submission that planned outside the
// lock can tell whether the entry it bound is still the registered one.
type relEntry struct {
	rel spatial.Relation
	fp  uint64
	gen uint64
}

// jobHistory is how many terminal jobs the service keeps answering
// for. Older ones are forgotten, oldest finish first: their IDs answer
// like unknown ones (ErrNotFound, HTTP 404), and their tuples, spans
// and profiles go with them.
const jobHistory = 1024

// Server is the multi-query join service. Create with New, register
// relations, submit jobs, and Close to drain.
type Server struct {
	cfg         Config
	reg         *metrics.Registry
	start       time.Time
	version     string
	slowlogSize int

	mu          sync.Mutex
	cond        *sync.Cond
	rels        map[string]relEntry
	regGen      uint64 // registrations so far
	jobs        map[string]*Job
	finished    []string // IDs of the retained terminal jobs, in finish order
	queue       jobQueue
	seq         int64
	inFlight    float64 // predicted cost of running jobs
	running     int
	stateCounts map[State]int64
	cache       *resultCache
	slowlog     []SlowlogEntry // sorted by E2EUS desc, capped at slowlogSize
	closed      bool

	wg sync.WaitGroup
	// stepGate, when non-nil (tests only), is invoked at every chain
	// step boundary of every running job, outside the server mutex —
	// the seam the cancellation property tests use to park a job at a
	// chosen boundary.
	stepGate func(jobID string, step int, name string)
	// planGate, when non-nil (tests only), is invoked by every
	// submission after it has bound its relations and before it prices
	// them, outside the server mutex — the seam that parks a submission
	// inside planning.
	planGate func(req SubmitRequest)
}

// New creates a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		reg:         cfg.Metrics,
		start:       time.Now(),
		version:     cfg.Version,
		slowlogSize: cfg.SlowlogSize,
		rels:        make(map[string]relEntry),
		jobs:        make(map[string]*Job),
		stateCounts: make(map[State]int64),
	}
	s.cond = sync.NewCond(&s.mu)
	s.cache = newResultCache(cfg.CacheBytes, s.reg)
	s.reg.Gauge("server_build_info_" + metrics.SanitizeName(s.version)).Set(1)
	s.reg.Gauge("server_uptime_seconds").Set(0)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// RegisterRelation registers (or replaces) a named relation the
// service's queries can bind to. Replacing a relation changes its
// fingerprint, so cached results computed from the old data can never
// be served for the new — the cache needs no explicit invalidation.
//
// The relation is summarised here, once (spatial.Relation.Summarized):
// every submission binding it plans, prices and validates from that
// summary instead of walking the records again.
func (s *Server) RegisterRelation(rel spatial.Relation) RelationInfo {
	fp := dataset.Fingerprint(rel)
	rel = rel.Summarized()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.regGen++
	s.rels[rel.Name] = relEntry{rel: rel, fp: fp, gen: s.regGen}
	s.reg.Gauge("server_relations").Set(int64(len(s.rels)))
	return RelationInfo{Name: rel.Name, Records: len(rel.Items), Fingerprint: fmt.Sprintf("%016x", fp)}
}

// Relations lists the registered relations in name order.
func (s *Server) Relations() []RelationInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RelationInfo, 0, len(s.rels))
	for name, e := range s.rels {
		out = append(out, RelationInfo{Name: name, Records: len(e.rel.Items), Fingerprint: fmt.Sprintf("%016x", e.fp)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// binding is a query's slots resolved against the registry at one
// moment: the relations, which registrations they came from, and the
// fingerprint vector the result cache keys by.
type binding struct {
	rels []spatial.Relation
	gens []uint64
	fps  string
}

// bind resolves the query's slots. Caller holds the mutex.
func (s *Server) bind(q *query.Query) (*binding, error) {
	b := &binding{rels: make([]spatial.Relation, q.NumSlots()), gens: make([]uint64, q.NumSlots())}
	fps := make([]byte, 0, 17*q.NumSlots())
	for i, slot := range q.Slots() {
		e, ok := s.rels[slot]
		if !ok {
			return nil, &UnknownRelationError{Slot: slot}
		}
		b.rels[i], b.gens[i] = e.rel, e.gen
		fps = fmt.Appendf(fps, "%016x/", e.fp)
	}
	b.fps = string(fps)
	return b, nil
}

// current reports whether every slot still names the registration the
// binding took. Caller holds the mutex.
func (s *Server) current(q *query.Query, b *binding) bool {
	for i, slot := range q.Slots() {
		if s.rels[slot].gen != b.gens[i] {
			return false
		}
	}
	return true
}

// pricing is what admission needs to know about how a job will run:
// the resolved method and grid, and the prediction admission orders and
// throttles by. The zero value prices nothing — a pinned-method cache
// hit, answered before pricing.
type pricing struct {
	method   spatial.Method
	part     *grid.Partitioning
	priced   *spatial.Prediction
	planned  bool
	planCost float64
}

// gridConfig is the reducer grid of the service as a spatial.Config:
// what every job is priced under and — with the engine settings added —
// run under, in process or on the cluster.
func (s *Server) gridConfig() spatial.Config {
	return spatial.Config{Scheme: s.cfg.Partition, Reducers: s.cfg.Reducers, SplitThreshold: s.cfg.SplitThreshold}
}

// price resolves the execution plan of a bound submission, outside the
// mutex: one planner call on the service's configured grid, ranking the
// pinned method alone or, for "auto", all four — so pinned and planned
// submissions are priced and sanitized alike, on the grid the job then
// runs on. A pinned job is priced in the planner's cost-based
// join order and run in the default one, as Execute runs any pinned
// method; only Cascade's rounds depend on the order at all.
func (s *Server) price(q *query.Query, b *binding, method spatial.Method, planned bool) (pricing, error) {
	cfg := s.gridConfig()
	if !planned && method == spatial.BruteForce {
		// Runs no map-reduce job, so there is no plan to rank: the
		// planner refuses it, and Predict answers zero rounds and zero
		// pairs.
		pred, err := spatial.Predict(method, q, b.rels, cfg)
		return pricing{method: method, priced: pred}, err
	}
	var popts spatial.PlannerOptions
	if !planned {
		popts.Methods = []spatial.Method{method}
	}
	plan, err := spatial.PlanQuery(q, b.rels, cfg, popts)
	if err != nil {
		return pricing{}, err
	}
	pr := pricing{method: plan.Method, part: plan.Part, priced: plan.Prediction, planned: planned}
	if planned {
		pr.planCost = plan.Cost
	}
	return pr, nil
}

// newJob creates the job of a bound, priced submission. Caller holds
// the mutex.
func (s *Server) newJob(req SubmitRequest, q *query.Query, b *binding, pr pricing) *Job {
	s.seq++
	j := &Job{
		id:       fmt.Sprintf("j%06d", s.seq),
		seq:      s.seq,
		queryTxt: q.String(),
		q:        q,
		method:   pr.method,
		rels:     b.rels,
		priority: req.Priority,
		key:      cacheKey{query: q.String(), method: pr.method, fps: b.fps},
		part:     pr.part,
		planned:  pr.planned,
		planCost: pr.planCost,
		queuedAt: time.Now(),
		done:     make(chan struct{}),
	}
	if pr.priced != nil {
		j.cost, j.rounds = pr.priced.Pairs, pr.priced.Rounds
	}
	s.reg.Counter("server_jobs_submitted_total").Add(1)
	return j
}

// serveCached answers a job from the result cache, if its key is
// there: the job is born done and no map-reduce job runs. Caller holds
// the mutex.
func (s *Server) serveCached(j *Job) bool {
	res, ok := s.cache.get(j.key)
	if !ok {
		return false
	}
	j.state = StateDone
	j.cached = true
	j.res = res
	s.stateCounts[StateDone]++
	s.publishStateGauges()
	s.jobs[j.id] = j
	s.retain(j)
	close(j.done)
	j.finishedAt = time.Now()
	s.observeSLO(j, j.finishedAt)
	return true
}

// Submit admits one query: it is parsed, bound to registered relations,
// priced with spatial.PlanQuery (over its pinned method, or all of them
// for "auto"), checked against the cache and — on a miss — queued for the worker pool. The returned
// status is the job's state at admission time (StateDone immediately
// for a cache hit).
//
// The mutex is held to bind and to admit, never to plan or price:
//
//  1. bind, under the mutex: the slots' relations, registrations and
//     fingerprints. A pinned method's cache key is complete here, so a
//     hit is answered now, before anything is priced;
//  2. plan and price, unlocked: the other client's submissions, status
//     calls and result pages do not wait behind it;
//  3. admit, under the mutex again: if a bound relation was replaced in
//     the meantime, bind afresh and go back to 2, so the job's plan,
//     cache key and execution all see one version of the data;
//     otherwise look the (now known) key up in the cache, and on a miss
//     apply the queue limit and enqueue.
func (s *Server) Submit(req SubmitRequest) (*JobStatus, error) {
	q, err := query.Parse(req.Query)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	methodName := req.Method
	if methodName == "" {
		methodName = spatial.ControlledReplicateLimit.String()
	}
	// "auto" defers the method choice to the cost-based planner; the
	// chosen method is recorded everywhere a fixed method would be — job
	// status, SLO histograms, slowlog.
	planned := methodName == "auto"
	var method spatial.Method
	if !planned {
		if method, err = spatial.ParseMethod(methodName); err != nil {
			return nil, err
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	b, err := s.bind(q)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if !planned && s.cache.holds(cacheKey{query: q.String(), method: method, fps: b.fps}) {
		defer s.mu.Unlock()
		return s.admit(s.newJob(req, q, b, pricing{method: method}))
	}
	gate := s.planGate
	s.mu.Unlock()

	for {
		if gate != nil {
			gate(req)
		}
		pr, err := s.price(q, b, method, planned)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if !s.current(q, b) {
			b, err = s.bind(q)
			s.mu.Unlock()
			if err != nil {
				return nil, err
			}
			continue
		}
		st, err := s.admit(s.newJob(req, q, b, pr))
		s.mu.Unlock()
		return st, err
	}
}

// admit serves a priced job from the cache or queues it. Caller holds
// the mutex.
func (s *Server) admit(j *Job) (*JobStatus, error) {
	if s.serveCached(j) {
		return j.status(), nil
	}
	if int(s.stateCounts[StateQueued]) >= s.cfg.QueueLimit {
		s.reg.Counter("server_admission_rejections_total").Add(1)
		return nil, &AdmissionError{QueueDepth: int(s.stateCounts[StateQueued]), QueueLimit: s.cfg.QueueLimit}
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j.ctx, j.cancel = ctx, cancel
	j.state = StateQueued
	j.tracer = trace.New()
	s.stateCounts[StateQueued]++
	s.publishStateGauges()
	s.jobs[j.id] = j
	heap.Push(&s.queue, j)
	s.cond.Signal()
	return j.status(), nil
}

// retain records a job that has just become terminal and forgets the
// oldest terminal job beyond jobHistory. Queued and running jobs are
// never in the list, so never forgotten. Caller holds the mutex.
func (s *Server) retain(j *Job) {
	s.finished = append(s.finished, j.id)
	if len(s.finished) > jobHistory {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// Status snapshots a job.
func (s *Server) Status(id string) (*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.status(), nil
}

// Jobs snapshots every job, in submission order.
func (s *Server) Jobs() []*JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Wait blocks until the job reaches a terminal state (or ctx expires)
// and returns its final status.
func (s *Server) Wait(ctx context.Context, id string) (*JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.status(), nil
}

// Cancel cancels a job: a queued job is finalised immediately, a
// running job's context is cancelled and the chain stops at its next
// job boundary (the job transitions to StateCancelled when it does).
// Cancelling an already-cancelled job is idempotent; a done or failed
// job returns ErrJobFinished.
func (s *Server) Cancel(id string) (*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		s.finishCancelled(j, errors.New("cancelled by request while queued"))
		s.cond.Broadcast()
	case StateRunning:
		j.cancel(nil) // cause defaults to context.Canceled
	case StateCancelled:
		// Idempotent.
	default:
		return j.status(), fmt.Errorf("%w (state %s)", ErrJobFinished, j.state)
	}
	return j.status(), nil
}

// Close drains the server: new submissions are rejected, queued jobs
// are cancelled, and running jobs are given until ctx expires to
// finish — after which their contexts are cancelled (each stops at its
// next chain-job boundary) and Close waits for the workers to exit.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, j := range s.jobs {
			if j.state == StateQueued {
				s.finishCancelled(j, errors.New("cancelled: server shutting down"))
			}
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	var cancelled int
	for _, j := range s.jobs {
		if j.state == StateRunning {
			j.cancel(fmt.Errorf("drain deadline exceeded: %w", context.Cause(ctx)))
			cancelled++
		}
	}
	s.mu.Unlock()
	<-done
	return fmt.Errorf("server: drain deadline exceeded; cancelled %d running job(s)", cancelled)
}

// finishCancelled finalises a not-yet-running job as cancelled. Caller
// holds the mutex.
func (s *Server) finishCancelled(j *Job, reason error) {
	if j.cancel != nil {
		j.cancel(reason)
	}
	j.err = reason
	s.setState(j, StateCancelled)
	close(j.done)
}

// setState moves a job between states and republishes the per-state
// gauges. Caller holds the mutex.
func (s *Server) setState(j *Job, st State) {
	if j.state == st {
		return
	}
	s.stateCounts[j.state]--
	s.stateCounts[st]++
	j.state = st
	if st.terminal() {
		s.reg.Counter("server_jobs_" + string(st) + "_total").Add(1)
		s.retain(j)
	}
	s.publishStateGauges()
}

// publishStateGauges refreshes the per-state job gauges and the queue
// depth. Caller holds the mutex.
func (s *Server) publishStateGauges() {
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		s.reg.Gauge("server_jobs_" + string(st)).Set(s.stateCounts[st])
	}
	s.reg.Gauge("server_queue_depth").Set(s.stateCounts[StateQueued])
}

// worker is one scheduler loop: claim the next admissible job, run it,
// repeat until the server closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.nextJob()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// nextJob blocks until a job can start under the admission policy and
// claims it, or returns nil when the server has closed and the queue
// has drained.
func (s *Server) nextJob() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		// Drop heads cancelled while queued — they were finalised by
		// Cancel/Close and only linger in the heap.
		for len(s.queue) > 0 && s.queue[0].state != StateQueued {
			heap.Pop(&s.queue)
		}
		if len(s.queue) > 0 {
			top := s.queue[0]
			// The cost budget throttles the head of the queue; when
			// nothing is running, even an over-budget job proceeds (it
			// just runs alone) so the queue cannot wedge.
			if s.cfg.CostBudget <= 0 || s.running == 0 || s.inFlight+top.cost <= s.cfg.CostBudget {
				heap.Pop(&s.queue)
				s.inFlight += top.cost
				s.running++
				top.startedAt = time.Now()
				s.setState(top, StateRunning)
				s.reg.Gauge("server_inflight_cost").Set(int64(s.inFlight))
				return top
			}
		} else if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// runJob executes one claimed job and finalises it: on the in-process
// engine by default, or on the cluster coordinator when one is
// configured.
func (s *Server) runJob(j *Job) {
	res := new(result)
	var err error
	cfg := s.gridConfig()
	cfg.Parallelism = s.cfg.Parallelism
	// A planned job runs as ExecutePlan would run it.
	cfg.OptimizeOrder = j.planned
	if coord := s.cfg.Cluster; coord != nil {
		// The workers derive the grid from the shipped relations and the
		// configuration the job was priced under: the same grid.
		cfg.NumMappers = s.cfg.NumMappers
		spec := cluster.SpecFromConfig(j.method, j.queryTxt, j.rels, cfg)
		var rr *cluster.RunResult
		if rr, err = coord.Run(spec); err == nil {
			res.rows, res.stats = rr.Rows, rr.Stats
		}
	} else {
		cfg.Part = j.part
		cfg.Context = j.ctx
		cfg.Tracer = j.tracer
		cfg.OnChainStep = func(i int, name string) {
			s.mu.Lock()
			j.stepsDone = i
			j.currentStep = name
			gate := s.stepGate
			s.mu.Unlock()
			if gate != nil {
				gate(j.id, i, name)
			}
		}
		res.rows, res.stats, err = spatial.ExecuteRows(j.method, j.q, j.rels, cfg)
	}
	finished := time.Now()

	// Publish the Stats and assemble the profile outside the mutex:
	// queryTxt and the tracer are immutable after submission, and no
	// other goroutine touches the tracer once ExecuteRows has returned.
	// Cluster jobs publish too but get no profile — their spans live on
	// the workers — and take the ErrNoProfile path.
	var prof *profile.Profile
	if err == nil {
		profile.Publish(s.reg, &res.stats)
		if s.cfg.Cluster == nil {
			prof = profile.Build(j.queryTxt, &res.stats, j.tracer.Spans())
		}
	}

	s.mu.Lock()
	s.inFlight -= j.cost
	s.running--
	s.reg.Gauge("server_inflight_cost").Set(int64(s.inFlight))
	switch {
	case err == nil:
		j.res = res
		j.prof = prof
		j.stepsDone = len(res.stats.Rounds)
		j.currentStep = ""
		s.setState(j, StateDone)
		s.cache.put(j.key, res)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.err = err
		s.setState(j, StateCancelled)
	default:
		j.err = err
		s.setState(j, StateFailed)
	}
	j.finishedAt = finished
	s.observeSLO(j, finished)
	s.recordSlowlog(j, finished)
	close(j.done)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// jobQueue is the admission priority queue: higher priority first, then
// lower predicted cost, then submission order.
type jobQueue []*Job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.seq < b.seq
}
func (q jobQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *jobQueue) Push(x interface{}) { *q = append(*q, x.(*Job)) }
func (q *jobQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return x
}
