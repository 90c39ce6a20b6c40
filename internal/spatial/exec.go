package spatial

import (
	"context"
	"fmt"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/query"
	"mwsjoin/internal/trace"
)

// Config tunes a join execution.
type Config struct {
	// Part is the reducer grid (§5.1: one reducer per cell). When nil,
	// one is built from the bound relations per Scheme — the uniform
	// default is DefaultPartitioning's 64-reducer grid (8×8, §7.8.1).
	Part *grid.Partitioning
	// Scheme selects how the grid is derived when Part is nil:
	// PartitionUniform (default) or PartitionAdaptive.
	Scheme PartitionScheme
	// SplitThreshold tunes the adaptive scheme's region capacity (see
	// grid.AdaptiveOptions.SplitThreshold); ≤ 0 uses the default 1.0.
	// Ignored when Part is set or Scheme is uniform.
	SplitThreshold float64
	// Reducers is the target cell count of the grid derived when Part is
	// nil (must be a perfect square under the uniform scheme). ≤ 0 uses
	// the default 64. Ignored when Part is set.
	Reducers int
	// Parallelism and NumMappers pass through to the engine; zero
	// values use the engine defaults.
	Parallelism int
	NumMappers  int
	// LimitMetric is the cell-distance metric for C-Rep-L (DESIGN.md
	// §3.2). The zero value is the provably safe Chebyshev metric;
	// grid.MetricEuclidean reproduces the paper's bound exactly.
	LimitMetric grid.Metric
	// AllowSelfPairs permits one rectangle to occupy several slots of
	// a self-join; by default tuples bind distinct rectangles to slots
	// sharing a dataset (the paper's "road triples").
	AllowSelfPairs bool
	// FS is the simulated distributed file system; a private one is
	// created when nil.
	FS *dfs.FS
	// Deprecated: Columnar is read by nothing — relation inputs are
	// always staged as MBB records, laid out once per relation. The
	// field remains only because benchmark/workload.go, frozen for this
	// change, still sets it; the next benchmark change drops both.
	Columnar bool
	// Deprecated: SpillBudget is read by nothing — a map run stays in
	// memory until the shuffle copies it. The field remains only because
	// benchmark/workload.go, frozen for this change, still sets it; the
	// next benchmark change drops both.
	SpillBudget int64
	// MaxAttempts, FailMap and FailReduce pass fault injection through
	// to every job (see mapreduce.Config).
	MaxAttempts int
	FailMap     func(mapper, attempt int) bool
	FailReduce  func(reducer, attempt int) bool
	// Context, when non-nil, cancels the execution cooperatively: it is
	// checked before input staging, at every chain-step (job) boundary
	// and before every task attempt inside the running job, so a
	// cancelled execution stops within one job boundary and charges no
	// further DFS or shuffle accounting. The returned error wraps
	// context.Cause. BruteForce, which runs no map-reduce job, is only
	// checked up front.
	Context context.Context
	// OnChainStep, when non-nil, observes each chain step (map-reduce
	// job) as it begins, with the step's chain index and name — the
	// progress feed of the multi-query join service. It may be called
	// from the executing goroutine at any job boundary.
	OnChainStep func(jobIndex int, name string)
	// FailJob, when non-nil, is the chain-level kill switch: each
	// method's job sequence runs as a mapreduce.Chain, and FailJob(i)
	// == true kills the run with a *mapreduce.ChainKilledError before
	// job i, leaving the checkpoints of jobs 0..i-1 on FS.
	FailJob func(jobIndex int) bool
	// Resume continues a killed chain on the same FS: jobs whose
	// checkpoint is complete are skipped (their recorded Stats are
	// reused), and only the checkpoint re-read cost is charged.
	Resume bool
	// Tracer, when non-nil, receives the execution's timeline: a run
	// span over the whole call, one round span per algorithm step
	// (cascade steps, C-Rep's mark/join rounds) covering the step's
	// jobs and DFS staging, and the engine's job/phase/task spans
	// beneath. Spans carry time only; the counts are in Result.Stats.
	Tracer *trace.Tracer
	// OptimizeOrder replaces the default connectivity join order with a
	// cost-based one derived from sampling estimates (footnote 1 of the
	// paper assumes Cascade runs its 2-way joins in the optimal order).
	// It affects the Cascade job sequence and the backtracking order of
	// every reducer-local matcher; results are unchanged.
	OptimizeOrder bool
	// CountOnly suppresses materialisation of the output tuples:
	// Result.Tuples stays nil while Stats.OutputTuples still reports
	// the exact count. Used by the benchmark harness, whose dense
	// sweeps produce hundreds of millions of tuples. CountOnly tallies
	// tuples inside the reducers, so combining it with FailReduce
	// overcounts (discarded attempts cannot untally); materialising
	// runs are exact under fault injection.
	CountOnly bool
	// Dist, when non-nil with NumWorkers > 1, runs every map-reduce
	// round in SPMD lockstep across a worker group: this process owns
	// its share of mappers and reducers, ships runs destined for remote
	// reducers through Dist.Exchanger, and gathers outputs so the final
	// Result is bit-identical on every worker (see mapreduce.DistConfig).
	// NumWorkers == 1 is the in-process engine, verbatim. Incompatible
	// with CountOnly: distributed tallies are per-worker and would
	// undercount. Dist.Pool, which only a cluster worker sets, is the
	// pool every job of the execution runs on.
	Dist *mapreduce.DistConfig
}

// sharedPool is the buffer pool of the process's in-process executions;
// a cluster worker's executions run on its own (DistConfig.Pool). It
// recycles only at sole-reference points (see mapreduce.BufferPool), so
// sharing it across executions is as safe as sharing it across the jobs
// of one; and it retains at most mapreduce.MaxPoolBytes, so what an
// execution leaves behind for the next is bounded.
var sharedPool = mapreduce.NewBufferPool()

// DefaultPartitioning builds the paper's experimental grid over the
// bounding box of the given relations: √k × √k cells for k reducers
// (§5.1), defaulting to 64 reducers (§7.8.1) when k ≤ 0. k must be a
// perfect square.
func DefaultPartitioning(rels []Relation, k int) (*grid.Partitioning, error) {
	return BuildPartitioning(PartitionUniform, rels, k, 0)
}

// executor carries the per-execution context shared by the methods.
type executor struct {
	part *grid.Partitioning
	rels []Relation
	// stats are the relations' summaries, slot by slot.
	stats  []*relStats
	fs     *dfs.FS
	cfg    Config
	metric grid.Metric
	// pool recycles engine scratch and partial-store pages: the cluster
	// worker's (Dist.Pool), or else sharedPool, whose buffers pass between
	// the jobs of every in-process execution, concurrent ones included.
	pool *mapreduce.BufferPool

	tr      *trace.Tracer
	runSpan trace.SpanID
	// cur is the span job spans nest under: the open round span, or the
	// run span between rounds.
	cur trace.SpanID
}

// beginRound opens a round span (one algorithm step) and nests the
// following jobs under it.
func (e *executor) beginRound(name string) trace.SpanID {
	id := e.tr.Start(e.runSpan, trace.KindRound, name)
	if id != 0 {
		e.cur = id
	}
	return id
}

// endRound closes a round span; later jobs nest under the run again.
func (e *executor) endRound(id trace.SpanID) {
	e.tr.End(id)
	if id != 0 {
		e.cur = e.runSpan
	}
}

// Execute runs the query bound to the given relations (rels[i] binds
// query slot i) with the chosen method and returns the tuples plus cost
// statistics. All methods return the same tuple set.
func Execute(method Method, q *query.Query, rels []Relation, cfg Config) (*Result, error) {
	if ctx := cfg.Context; ctx != nil {
		if cause := context.Cause(ctx); cause != nil {
			return nil, fmt.Errorf("spatial: %v execution cancelled before start: %w", method, cause)
		}
	}
	if cfg.Dist != nil && cfg.Dist.NumWorkers > 1 {
		if cfg.CountOnly {
			return nil, fmt.Errorf("spatial: CountOnly is incompatible with a %d-worker distributed run (per-worker tallies undercount)", cfg.Dist.NumWorkers)
		}
		if cfg.NumMappers <= 0 {
			return nil, fmt.Errorf("spatial: a distributed run needs an explicit NumMappers (the GOMAXPROCS default differs across workers)")
		}
	}
	// The estimator is how Execute reads the relations' summaries: the
	// binding and every rectangle validated, the cost-based join order,
	// and the configured grid — none of which walks Items again once the
	// relations have been summarised.
	est, err := newEstimator(q, rels, cfg)
	if err != nil {
		return nil, err
	}
	pl := est.plan(cfg.OptimizeOrder)
	g, err := est.configuredGrid(cfg)
	if err != nil {
		return nil, err
	}
	fs := cfg.FS
	if fs == nil {
		// Nothing outside this call can read a private FS, so its pages
		// go back when the call returns. A caller's FS hands them back
		// when the caller closes it (outputStore).
		fs = dfs.New(0)
		defer fs.Close()
	}
	exec := &executor{part: g.part, rels: rels, stats: est.set.stats, fs: fs, cfg: cfg, metric: cfg.LimitMetric, tr: cfg.Tracer, pool: sharedPool}
	if cfg.Dist != nil && cfg.Dist.Pool != nil {
		exec.pool = cfg.Dist.Pool
	}
	exec.runSpan = exec.tr.Start(0, trace.KindRun, fmt.Sprintf("%s %s", method, q))
	exec.cur = exec.runSpan
	// Registered before the runSpan End so it runs after it (defers are
	// LIFO): on a clean return every span is already ended and this is a
	// no-op; on a panic, cancellation or error return it closes the
	// round/job/phase spans whose End was skipped, flagging each
	// Unfinished so exporters never see a dangling span.
	defer exec.tr.FinishOpen()
	defer exec.tr.End(exec.runSpan)

	before := fs.Stats()
	stage := exec.tr.Start(exec.runSpan, trace.KindPhase, "stage-inputs")
	if err := exec.stageInputs(); err != nil {
		return nil, err
	}
	exec.tr.End(stage)

	var res *Result
	switch method {
	case BruteForce:
		res, err = bruteForce(pl, rels, cfg.CountOnly)
	case Cascade:
		res, err = cascade(pl, exec)
	case AllReplicate:
		res, err = allReplicate(pl, exec)
	case ControlledReplicate:
		res, err = controlledReplicate(pl, exec, false)
	case ControlledReplicateLimit:
		res, err = controlledReplicate(pl, exec, true)
	default:
		err = fmt.Errorf("spatial: unknown method %v", method)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.DFS = statsDelta(before, fs.Stats())
	return res, nil
}

// outputStore returns a store for a round's output partials. Its pages
// back the round's checkpoint file, so they go back to the pool when the
// FS closes.
func (e *executor) outputStore(m int) *partialStore {
	s := newPartialStore(m, e.pool)
	e.fs.OnClose(s.release)
	return s
}

// jobConfig builds the engine config for one job of this execution;
// the job's spans nest under the currently open round.
func (e *executor) jobConfig(name string) mapreduce.Config {
	return mapreduce.Config{
		Name:        name,
		Context:     e.cfg.Context,
		NumReducers: e.part.NumCells(),
		NumMappers:  e.cfg.NumMappers,
		Parallelism: e.cfg.Parallelism,
		MaxAttempts: e.cfg.MaxAttempts,
		FailMap:     e.cfg.FailMap,
		FailReduce:  e.cfg.FailReduce,
		Tracer:      e.tr,
		TraceParent: e.cur,
		Pool:        e.pool,
		Dist:        e.cfg.Dist,
	}
}

// chain builds the method's job chain over the execution's FS:
// checkpoints land under "chk/<name>", and kill/resume follow the
// Config knobs. A resumed distributed chain first agrees with its peers
// on the prefix every worker resumes (Chain.AgreeResume).
func (e *executor) chain(name string) (*mapreduce.Chain, error) {
	ch := mapreduce.NewChain(mapreduce.ChainConfig{
		Name:    name,
		FS:      e.fs,
		Resume:  e.cfg.Resume,
		FailJob: e.cfg.FailJob,
		Context: e.cfg.Context,
		OnStep:  e.cfg.OnChainStep,
	})
	if d := e.cfg.Dist; e.cfg.Resume && d != nil && d.NumWorkers > 1 {
		if err := ch.AgreeResume(d); err != nil {
			return nil, err
		}
	}
	return ch, nil
}

// inputFile names the staged DFS file of a relation.
func inputFile(name string) string { return "input/" + name }

// stageInputs writes each distinct relation to the DFS once, as an MBB
// file in sweep order: the job input all methods read from. The records
// are laid out once per relation (relStats.stagedRows), and every
// execution's file is that one buffer as its one segment, charged as a
// full write; no file is written in place, so they share it safely.
// IDs travel with the records, so the order changes no tuple. A file a
// caller staged before keeps its own order, and the reducers sort what
// reaches them from it.
func (e *executor) stageInputs() error {
	staged := map[string]bool{}
	for s, rel := range e.rels {
		if staged[rel.Name] {
			continue
		}
		staged[rel.Name] = true
		name := inputFile(rel.Name)
		if e.fs.Exists(name) {
			// Pre-staged by a caller reusing the FS across runs; guard
			// against silently joining stale data under a reused name.
			if _, records, err := e.fs.Size(name); err != nil {
				return err
			} else if records != int64(len(rel.Items)) {
				return fmt.Errorf("spatial: staged relation %q has %d records but %d items were bound; use a fresh FS or distinct relation names", rel.Name, records, len(rel.Items))
			}
			continue
		}
		rows := e.stats[s].stagedRows(rel.Items)
		if err := e.fs.WriteSegments(name, dfs.Segments{Stride: dfs.MBBRecordBytes, Segs: [][]byte{rows}}); err != nil {
			return err
		}
	}
	return nil
}

// openRelations opens every slot's relation file for a job whose map
// tasks read their own splits, and returns the record count of their
// concatenation in slot order and a split reader over it that tags each
// item with its slot and marks it when mark, if non-nil, says so.
// Each slot charges one whole-file read, so self-joins charge one read
// per slot, as a Hadoop job with the dataset listed once per input
// would.
func (e *executor) openRelations(mark func(tagged) bool) (int, func(lo, hi int, yield func(tagged) error) error, error) {
	views := make([]*dfs.View, len(e.rels))
	n := 0
	for s, rel := range e.rels {
		v, err := e.fs.Open(inputFile(rel.Name))
		if err != nil {
			return 0, nil, err
		}
		views[s] = v
		n += v.Len()
	}
	read := func(lo, hi int, yield func(tagged) error) error {
		base := 0
		for s, v := range views {
			if slo, shi := max(lo, base), min(hi, base+v.Len()); slo < shi {
				err := v.MBBs(slo-base, shi-base, func(m dfs.MBB) error {
					it := mbbItem(m)
					it.Slot = int8(s)
					if mark != nil && mark(it) {
						it.Marked = true
					}
					return yield(it)
				})
				if err != nil {
					return err
				}
			}
			base += v.Len()
		}
		return nil
	}
	return n, read, nil
}

// statsDelta subtracts DFS counter snapshots.
func statsDelta(before, after dfs.Stats) dfs.Stats {
	return dfs.Stats{
		BytesWritten:   after.BytesWritten - before.BytesWritten,
		BytesRead:      after.BytesRead - before.BytesRead,
		RecordsWritten: after.RecordsWritten - before.RecordsWritten,
		RecordsRead:    after.RecordsRead - before.RecordsRead,
		BlocksWritten:  after.BlocksWritten - before.BlocksWritten,
		BlocksRead:     after.BlocksRead - before.BlocksRead,
		FilesCreated:   after.FilesCreated - before.FilesCreated,
		FilesDeleted:   after.FilesDeleted - before.FilesDeleted,
	}
}
