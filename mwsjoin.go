// Package mwsjoin is a from-scratch Go reproduction of "Processing
// Multi-Way Spatial Joins on Map-Reduce" (Gupta et al., EDBT 2013). It
// evaluates conjunctive multi-way spatial join queries over rectangle
// (MBR) datasets on a simulated map-reduce cluster, implementing the
// paper's Controlled-Replicate framework together with the naive
// baselines it is evaluated against.
//
// # Quick start
//
//	q, _ := mwsjoin.ParseQuery("city ov forest and forest ra(10) river")
//	res, _ := mwsjoin.Run(q, []mwsjoin.Relation{cities, forests, rivers},
//		mwsjoin.ControlledReplicateLimit, nil)
//	for _, t := range res.Tuples { ... }
//
// Relations bind positionally to the query's slots (first slot →
// rels[0], ...). A self-join binds the same relation to several slots;
// by default tuples then require distinct rectangles per slot.
//
// # Methods
//
//   - BruteForce — single-machine reference join (ground truth);
//   - Cascade — the naive 2-way Cascade baseline (§6.1 of the paper);
//   - AllReplicate — the naive All-Replicate baseline (§6.1);
//   - ControlledReplicate — the paper's C-Rep framework (§7–§9);
//   - ControlledReplicateLimit — C-Rep-in-Limit (§7.9, §8), the
//     strongest method and the recommended default.
//
// Every method returns the same tuple set; Result.Stats exposes the
// cost metrics that differentiate them (intermediate key-value pairs,
// rectangles replicated, rectangles after replication, simulated DFS
// traffic), mirroring the paper's evaluation metrics (§7.8.3).
package mwsjoin

import (
	"context"
	"io"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/metrics"
	"mwsjoin/internal/profile"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
	"mwsjoin/internal/trace"
)

// Rect is an axis-aligned rectangle (x, y, l, b): start-point (top-left
// vertex) plus length and breadth. See geom.Rect for the full method
// set (Overlaps, WithinDist, Enlarge, ...).
type Rect = geom.Rect

// NewRect builds a validated rectangle from its start-point and
// dimensions.
func NewRect(x, y, l, b float64) (Rect, error) { return geom.NewRect(x, y, l, b) }

// Query is a multi-way spatial join query: named relation slots joined
// by Overlap / Range(d) conditions.
type Query = query.Query

// NewQuery creates a query over the given relation slots; add
// conditions with (*Query).Overlap and (*Query).Range.
func NewQuery(slots ...string) *Query { return query.New(slots...) }

// ParseQuery parses the textual query form, e.g.
// "R1 ov R2 and R2 ra(100) R3".
func ParseQuery(text string) (*Query, error) { return query.Parse(text) }

// Relation is a named rectangle dataset.
type Relation = spatial.Relation

// NewRelation builds a relation whose item IDs are the rectangle
// indices.
func NewRelation(name string, rects []Rect) Relation { return spatial.NewRelation(name, rects) }

// Tuple is one output row: rectangle IDs bound to the query slots.
type Tuple = spatial.Tuple

// Result carries the output tuples and the execution cost statistics.
type Result = spatial.Result

// Stats is the per-execution cost breakdown (§7.8.3 metrics).
type Stats = spatial.Stats

// Method selects a join algorithm.
type Method = spatial.Method

// The available join methods.
const (
	BruteForce               = spatial.BruteForce
	Cascade                  = spatial.Cascade
	AllReplicate             = spatial.AllReplicate
	ControlledReplicate      = spatial.ControlledReplicate
	ControlledReplicateLimit = spatial.ControlledReplicateLimit
)

// ParseMethod resolves a method name ("c-rep", "2-way-cascade", ...).
func ParseMethod(s string) (Method, error) { return spatial.ParseMethod(s) }

// Methods lists all executable methods.
func Methods() []Method { return spatial.Methods() }

// Partitioning is the reducer grid: one map-reduce reducer per
// partition-cell.
type Partitioning = grid.Partitioning

// NewPartitioning builds a uniform rows × cols reducer grid over the
// given bounds.
func NewPartitioning(bounds Rect, rows, cols int) (*Partitioning, error) {
	return grid.NewUniform(bounds, rows, cols)
}

// Options tunes an execution. The zero value (or a nil *Options) picks
// the paper's defaults: a 64-reducer (8×8) grid over the data bounds,
// distinct rectangles per self-join slot, and the safe Chebyshev
// replication-limit metric.
type Options struct {
	// Reducers is the reducer count (must be a perfect square for the
	// uniform scheme; any positive count for adaptive); ignored when
	// Partitioning is set. Default 64.
	Reducers int
	// Partitioning overrides the reducer grid entirely.
	Partitioning *Partitioning
	// Partition names the partitioning scheme used when Partitioning is
	// nil: "uniform" (the paper's √k × √k grid, default) or "adaptive"
	// (sample-driven: hot cells split recursively, cold rows/columns
	// merge — balances reducer load under spatial skew). Results are
	// bit-identical across schemes; only the cost profile changes.
	Partition string
	// SplitThreshold tunes the adaptive scheme's split capacity: a
	// region splits while it holds more than SplitThreshold × (sample
	// size / Reducers) sample points. ≤ 0 uses the default 1.0.
	SplitThreshold float64
	// Parallelism bounds concurrent map/reduce tasks (default:
	// GOMAXPROCS).
	Parallelism int
	// EuclideanLimit applies the paper's Euclidean
	// Controlled-Replicate-in-Limit metric instead of the default
	// (safe) Chebyshev one. See DESIGN.md §3.2 for the trade-off.
	EuclideanLimit bool
	// AllowSelfPairs lets one rectangle occupy several slots of a
	// self-join.
	AllowSelfPairs bool
	// OptimizeOrder picks the cascade join order (and the matchers'
	// backtracking order) from sampling-based cardinality estimates
	// instead of plain graph connectivity. Results are unchanged.
	OptimizeOrder bool
	// MaxAttempts, FailMap and FailReduce inject deterministic task
	// faults into every map-reduce job: before each attempt of mapper m
	// (reducer r), FailMap(m, attempt) (FailReduce(r, attempt)) decides
	// whether the attempt crashes — its output is discarded and the task
	// retried, up to MaxAttempts attempts.
	MaxAttempts int
	FailMap     func(mapper, attempt int) bool
	FailReduce  func(reducer, attempt int) bool
	// FS is the simulated distributed file system the run stages its
	// inputs, intermediates and chain checkpoints on; a private one is
	// created when nil. Provide one (see NewFileSystem) to resume a
	// killed run: the FS holds the checkpoints Resume needs.
	FS *FileSystem
	// FailJob, when non-nil, is the chain-level kill switch: each
	// method's job sequence runs as a checkpointed chain, and
	// FailJob(i) == true kills the run with a *ChainKilledError before
	// job i, leaving the checkpoints of jobs 0..i-1 on FS.
	FailJob func(jobIndex int) bool
	// Resume continues a killed chain on the same FS: jobs whose
	// checkpoint is complete are skipped (their recorded Stats are
	// reused) and only the checkpoint re-read cost is charged. The
	// final output is bit-identical to an unkilled run's.
	Resume bool
	// Tracer, when non-nil, records the execution's timeline as a
	// hierarchy of timed spans (run → round → job → phase → task); see
	// NewTracer. Spans carry time only: the counts are in Result.Stats.
	// The same tracer may collect several sequential runs.
	Tracer *Tracer
	// Metrics, when non-nil, receives the run's counters, gauges and
	// reducer-load histograms once it succeeds, all read off its Stats;
	// see NewMetricsRegistry. Any number of runs, sequential or
	// concurrent, may share one registry.
	Metrics *MetricsRegistry
	// CountOnly suppresses materialisation of the output tuples:
	// Result.Tuples stays nil while Stats.OutputTuples still carries the
	// exact count. Use for cost measurement (the -explain mode) where
	// only the counters matter.
	CountOnly bool
}

// Tracer is the structured tracing collector; pass one via
// Options.Tracer, then export its Spans with WriteChromeTrace (the
// timeline) or BuildProfile (the per-round text view).
type Tracer = trace.Tracer

// TraceSpan is one exported span snapshot of a Tracer.
type TraceSpan = trace.Span

// NewTracer creates an empty tracer ready to record executions.
func NewTracer() *Tracer { return trace.New() }

// MetricsRegistry is the metrics collector every successful run given
// one in Options.Metrics publishes its Stats into; inspect it with its
// Snapshot method or render it with WritePrometheus. The package serves
// nothing over HTTP.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a point-in-time copy of a registry's metrics.
type MetricsSnapshot = metrics.Snapshot

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// FileSystem is the simulated distributed file system executions stage
// their inputs, intermediates and chain checkpoints on. Pass one via
// Options.FS to keep checkpoints across runs (kill → resume), and
// persist it across processes with WriteSnapshot /
// ReadFileSystemSnapshot.
type FileSystem = dfs.FS

// NewFileSystem creates an empty simulated file system with the default
// block size.
func NewFileSystem() *FileSystem { return dfs.New(0) }

// ReadFileSystemSnapshot restores a file system previously saved with
// (*FileSystem).WriteSnapshot — the persistence path for resuming a
// killed run from a different process.
func ReadFileSystemSnapshot(r io.Reader) (*FileSystem, error) { return dfs.ReadSnapshot(r, 0) }

// ChainStats is the per-run recovery accounting exposed as Stats.Chain:
// jobs run versus resumed from checkpoints, and checkpoint bytes
// written/read.
type ChainStats = mapreduce.ChainStats

// ChainKilledError is returned by Run when Options.FailJob kills the
// job chain; the completed checkpoints remain on Options.FS, so the
// same call with Options.Resume finishes the run.
type ChainKilledError = mapreduce.ChainKilledError

// Prediction is the EXPLAIN-mode cost estimate of Predict.
type Prediction = spatial.Prediction

// Predict estimates, without running the join, the cost figures Run
// would report for the query under the given method and options: the
// intermediate key-value pairs shuffled per round, the rectangles
// replicated and their copies, and the output cardinality. Sampling is
// deterministic, so repeated calls agree. Compare against an actual
// Run's Stats to validate the paper's cost model (§7.8.3) on your data.
func Predict(q *Query, rels []Relation, method Method, opts *Options) (*Prediction, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	return spatial.Predict(method, q, rels, cfg)
}

// Profile is the structured post-execution query profile: per-round
// map/shuffle/reduce wall times and counters, skew, replication and
// chain/checkpoint accounting. Assemble one with BuildProfile; render
// with its WriteText method or export its tracer's spans with
// WriteChromeTrace. Normalize() returns a copy with every wall-time
// field zeroed — byte-identical across runs that differ only in
// scheduling.
type Profile = profile.Profile

// BuildProfile assembles a Profile from a finished run's Stats and the
// spans its Tracer recorded. Every count comes from Stats; the spans
// add the shuffle wall times (pass nil spans for an untraced run).
func BuildProfile(q *Query, st *Stats, spans []TraceSpan) *Profile {
	text := ""
	if q != nil {
		text = q.String()
	}
	return profile.Build(text, st, spans)
}

// WriteChromeTrace exports tracer spans as Chrome trace-event JSON,
// loadable in chrome://tracing and Perfetto: one complete event per
// span, the span hierarchy on one track and each task on its own lane.
func WriteChromeTrace(w io.Writer, spans []TraceSpan) error {
	return profile.WriteChromeTrace(w, spans)
}

// ValidateChromeTrace checks that data is well-formed Chrome
// trace-event JSON as WriteChromeTrace emits it (complete events,
// non-negative times).
func ValidateChromeTrace(data []byte) error { return profile.ValidateChromeTrace(data) }

// PartitionScheme selects how the reducer grid is derived from the
// data: PartitionUniform is the paper's fixed k×k grid,
// PartitionAdaptive the sample-driven split/merge partitioning.
type PartitionScheme = spatial.PartitionScheme

// Partitioning scheme values, the parsed forms of Options.Partition.
const (
	PartitionUniform  = spatial.PartitionUniform
	PartitionAdaptive = spatial.PartitionAdaptive
)

// ParsePartitionScheme parses "uniform" or "adaptive" (the empty
// string is uniform).
func ParsePartitionScheme(s string) (PartitionScheme, error) {
	return spatial.ParsePartitionScheme(s)
}

// Plan is the cost-based planner's pick: the chosen method, the grid it
// was priced on, the cost estimate it was priced from, and
// every rejected method. Obtain one with PlanQuery, execute it with
// RunPlan, render it with WriteExplain.
type Plan = spatial.Plan

// PlanCandidate is one priced method of a Plan.
type PlanCandidate = spatial.PlanCandidate

// PlannerOptions bounds the methods the planner ranks; the zero value
// ranks every map-reduce method.
type PlannerOptions = spatial.PlannerOptions

// PlanQuery prices every map-reduce method for the query with the
// EXPLAIN cost model — each exactly as Predict
// prices it under the same options with OptimizeOrder set — and returns
// the cheapest as a Plan ready for RunPlan. The method is the only
// thing planned: the reducer grid is the one the options select
// (Partitioning, else Partition, Reducers and SplitThreshold; the
// paper's uniform 8×8 by default), exactly as for Run, and the join
// order is the cost-based one.
// Planning is deterministic: the same query, relations and options
// always produce the same plan. Every method returns the same tuples,
// so a planner pick can only change cost, never the answer.
func PlanQuery(q *Query, rels []Relation, opts *Options, popts PlannerOptions) (*Plan, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	return spatial.PlanQuery(q, rels, cfg, popts)
}

// RunPlan executes a planned query exactly as PlanQuery priced it: the
// chosen method on the plan's grid in the cost-based join order. opts
// supplies everything else (parallelism, fault injection, tracing, …)
// and may be nil.
func RunPlan(q *Query, rels []Relation, plan *Plan, opts *Options) (*Result, error) {
	return RunPlanContext(context.Background(), q, rels, plan, opts)
}

// RunPlanContext is RunPlan with cooperative cancellation (see
// RunContext).
func RunPlanContext(ctx context.Context, q *Query, rels []Relation, plan *Plan, opts *Options) (*Result, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	cfg.Context = ctx
	return opts.publish(spatial.ExecutePlan(plan, q, rels, cfg))
}

// Run executes the query with the chosen method. rels[i] binds query
// slot i; opts may be nil.
func Run(q *Query, rels []Relation, method Method, opts *Options) (*Result, error) {
	return RunContext(context.Background(), q, rels, method, opts)
}

// RunContext is Run with cooperative cancellation: the context is
// checked at every job-chain boundary and before every map/reduce task
// attempt, so a cancelled or timed-out execution stops within one job
// boundary, charges no further simulated-DFS or shuffle accounting, and
// returns an error wrapping context.Cause(ctx) (context.Canceled or
// context.DeadlineExceeded, distinguishable with errors.Is).
func RunContext(ctx context.Context, q *Query, rels []Relation, method Method, opts *Options) (*Result, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	cfg.Context = ctx
	return opts.publish(spatial.Execute(method, q, rels, cfg))
}

// publish hands a successful run's Stats to o.Metrics, if any, and
// passes the run's outcome through; o may be nil.
func (o *Options) publish(res *Result, err error) (*Result, error) {
	if err == nil && o != nil {
		profile.Publish(o.Metrics, &res.Stats)
	}
	return res, err
}

// buildConfig translates public Options into the executor config shared
// by Run and Predict. The grid stays unresolved (Part is the caller's
// Partitioning or nil), so spatial resolves it once per relation set.
func buildConfig(opts *Options) (spatial.Config, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	scheme, err := spatial.ParsePartitionScheme(o.Partition)
	if err != nil {
		return spatial.Config{}, err
	}
	cfg := spatial.Config{
		Part:           o.Partitioning,
		Scheme:         scheme,
		Reducers:       o.Reducers,
		SplitThreshold: o.SplitThreshold,
		Parallelism:    o.Parallelism,
		AllowSelfPairs: o.AllowSelfPairs,
		MaxAttempts:    o.MaxAttempts,
		FailMap:        o.FailMap,
		FailReduce:     o.FailReduce,
		FS:             o.FS,
		FailJob:        o.FailJob,
		Resume:         o.Resume,
		Tracer:         o.Tracer,
		OptimizeOrder:  o.OptimizeOrder,
		CountOnly:      o.CountOnly,
	}
	if o.EuclideanLimit {
		cfg.LimitMetric = grid.MetricEuclidean
	}
	return cfg, nil
}

// SyntheticParams re-exports the synthetic workload parameters of the
// paper's generator script (§7.8.2).
type SyntheticParams = dataset.SyntheticParams

// PaperSyntheticParams returns the parameter set used in the paper's
// synthetic tables (uniform, 100K×100K space, dimensions ≤ 100).
func PaperSyntheticParams(n int) SyntheticParams { return dataset.PaperDefaults(n) }

// SyntheticRelation generates a synthetic relation deterministically
// from the seed.
func SyntheticRelation(name string, p SyntheticParams, seed uint64) (Relation, error) {
	return dataset.SyntheticRelation(name, p, seed)
}

// CaliforniaRoadsRelation generates the synthetic stand-in for the
// paper's Census 2000 California road MBBs (n rectangles,
// deterministic from the seed).
func CaliforniaRoadsRelation(name string, n int, seed uint64) Relation {
	return dataset.CaliforniaRoadsRelation(name, dataset.DefaultCaliforniaRoads(n), seed)
}

// RelationFingerprint returns an order-independent content hash of the
// relation's records. Identical data always fingerprints identically
// (regardless of record order or relation name) while any one-record
// change moves the hash, so the fingerprint identifies a dataset
// version — the multi-query join service keys its result cache on it.
func RelationFingerprint(rel Relation) uint64 { return dataset.Fingerprint(rel) }

// ReadRelationFile loads a relation from a dataset file (one
// "x,y,l,b" line per rectangle).
func ReadRelationFile(name, path string) (Relation, error) {
	rects, err := dataset.ReadFile(path)
	if err != nil {
		return Relation{}, err
	}
	return spatial.NewRelation(name, rects), nil
}

// WriteRelationFile saves rectangles to a dataset file.
func WriteRelationFile(path string, rects []Rect) error {
	return dataset.WriteFile(path, rects)
}

// AdaptivePartitioning builds the skew-aware reducer grid the
// "adaptive" partition scheme uses: a deterministic sample of each
// relation drives quadtree-style splitting of hot regions, the splits
// flatten into a rectilinear grid, and cold rows/columns merge until at
// most k cells remain (k ≤ 0 uses 64; any positive k is allowed).
// Pass the result via Options.Partitioning, or simply set
// Options.Partition = "adaptive". Results are bit-identical to any
// other partitioning; only reducer load balance changes.
func AdaptivePartitioning(rels []Relation, k int) (*Partitioning, error) {
	return spatial.AdaptivePartitioning(rels, k, 0)
}
