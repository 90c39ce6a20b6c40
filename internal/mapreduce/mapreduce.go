// Package mapreduce implements the execution substrate of the paper
// (§2): a map-reduce engine with user-defined map and reduce functions
// and a shuffle that routes every intermediate pair to its reducer. The
// engine is an in-process simulation of Hadoop-era map-reduce, built
// for *cost accounting*: it counts every intermediate key-value pair
// and byte moved between the map and reduce sides, because the paper's
// central argument is that algorithm quality on map-reduce is governed
// by the number of intermediate pairs produced (§1).
//
// An intermediate key is the index of the reducer it goes to — the
// paper's "an intermediate key-value pair (c_i, u) is routed to the
// reducer c_i" (§5.1) — so a reducer sees exactly one key. Execution
// model:
//
//   - the input is divided into NumMappers contiguous splits, each read
//     by its own mapper (RunSplits; Run is the in-memory special case);
//   - each mapper applies Map to its records and emits (K, V) pairs;
//     value v of key k is appended to the mapper's run for reducer k;
//   - each mapper folds the PairBytes accounting into its runs;
//   - the shuffle concatenates every reducer's runs in mapper order, in
//     parallel across reducers;
//   - Reduce runs once per reducer that received values;
//   - reducer outputs are concatenated in reducer-index order.
//
// The engine is deterministic regardless of goroutine scheduling: a
// reducer's values arrive in (mapper index, emit order) and outputs are
// assembled in reducer order. Task fault injection (Config.FailMap /
// Config.FailReduce with MaxAttempts) deterministically re-runs failed
// attempts, discarding their partial output (including its byte
// accounting), to mirror Hadoop's task retry semantics; retried
// reduce attempts reuse the immutable shuffled input.
//
// When Config.Tracer is set, every run emits a span tree — job →
// map/shuffle/reduce phases → task attempts — that times what Stats
// counts (see mwsjoin/internal/trace).
package mapreduce

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mwsjoin/internal/trace"
)

// Config carries the engine knobs shared by all jobs.
type Config struct {
	// Name identifies the job in stats and error messages.
	Name string
	// Context, when non-nil, cancels the job cooperatively: it is
	// checked before every task attempt and at each phase boundary, so
	// a cancelled job aborts promptly — no further tasks start, no
	// further pairs are shuffled and no Stats are returned — with an
	// error wrapping context.Cause. A nil Context never cancels.
	Context context.Context
	// NumReducers is the number of reduce tasks (k in §5.1). Required.
	NumReducers int
	// NumMappers is the number of map splits; defaults to Parallelism.
	NumMappers int
	// Parallelism bounds concurrently running tasks; defaults to
	// GOMAXPROCS.
	Parallelism int
	// MaxAttempts is the per-task attempt budget when FailMap or
	// FailReduce is set; defaults to 1 (no retry).
	MaxAttempts int
	// FailMap, when non-nil, is consulted before each map attempt;
	// returning true makes the attempt fail after producing (and then
	// discarding) its output, simulating a task crash.
	FailMap func(mapper, attempt int) bool
	// FailReduce is the reduce-side twin of FailMap: consulted after
	// each reduce attempt of a reducer, returning true discards the
	// attempt's partial output and retries (up to MaxAttempts). Note
	// that side effects of the user Reduce function itself (shared
	// counters, ...) cannot be rolled back by the engine.
	FailReduce func(reducer, attempt int) bool
	// Tracer, when non-nil, receives job → phase → task-attempt spans
	// for this job; TraceParent is the span they nest under (0 for a
	// root job span). A nil Tracer costs nothing.
	Tracer      *trace.Tracer
	TraceParent trace.SpanID
	// Pool recycles the engine's large scratch buffers — the map side's
	// run chunks and the shuffled reducer inputs — across task attempts
	// and, when callers share one pool, across jobs: the spatial
	// executor passes one pool for the whole process, so concurrent
	// executions share it. A pool retains at most MaxPoolBytes; see
	// BufferPool for the lifecycle rules. Nil means a pool private to
	// this job, dropped when it returns. Results and Stats never depend
	// on which. On a shared pool Reduce must not retain its values slice
	// after returning.
	Pool *BufferPool
	// Dist, when non-nil, runs the job as one SPMD worker of a cluster:
	// task ownership is partitioned by index modulo Dist.NumWorkers,
	// runs destined for remote reducers ship over Dist.Exchanger,
	// and the reduce barrier all-gathers outputs so every worker returns
	// the complete, bit-identical result (see dist.go). NumWorkers == 1
	// is exactly the in-process engine. Distribution with NumWorkers > 1
	// requires the EncodePair/DecodePair/EncodeOutput/DecodeOutput
	// codecs and an explicit NumMappers.
	Dist *DistConfig
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.NumReducers <= 0 {
		return cfg, fmt.Errorf("mapreduce: job %q: NumReducers must be positive, got %d", cfg.Name, cfg.NumReducers)
	}
	if cfg.Dist != nil {
		if err := cfg.Dist.validate(cfg.Name, cfg.NumMappers); err != nil {
			return cfg, err
		}
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.NumMappers <= 0 {
		cfg.NumMappers = cfg.Parallelism
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 1
	}
	return cfg, nil
}

// Stats reports what a job did. The intermediate counters are the
// paper's communication-cost metric.
type Stats struct {
	Job                 string
	MapInputRecords     int64
	IntermediatePairs   int64 // total (K, V) pairs shuffled to reducers
	IntermediateBytes   int64 // as measured by Job.PairBytes, 0 if unset
	ReduceInputKeys     int64
	ReduceOutputRecords int64
	MapAttempts         int64 // includes failed attempts
	MapFailures         int64
	ReduceAttempts      int64 // includes failed attempts
	ReduceFailures      int64
	// Deprecated: SpilledRuns and SpillBytesWritten are always zero — a
	// map run stays in memory until the shuffle copies it. The fields
	// remain, omitted from JSON, only because benchmark/layers.go, frozen
	// for this change, still reads them; the next benchmark change drops
	// both.
	SpilledRuns       int64 `json:",omitempty"`
	SpillBytesWritten int64 `json:",omitempty"`
	// ShuffleNetworkBytes and ShuffleNetworkRuns count what the
	// distributed run exchange actually shipped between workers: the
	// framed bytes and non-empty runs sent to remotely-owned
	// reducers, summed over all workers (every worker reports the same
	// global totals). They are deliberately NOT folded into
	// IntermediateBytes — the paper's communication metric counts what
	// the shuffle routes, not which machine it lands on — and stay zero
	// for in-process and single-worker runs, so those serialize exactly
	// as before.
	ShuffleNetworkBytes int64 `json:",omitempty"`
	ShuffleNetworkRuns  int64 `json:",omitempty"`
	// PairsPerReducer measures reducer load balance: entry i is the
	// number of intermediate pairs routed to reducer i.
	PairsPerReducer []int64

	MapWall    time.Duration
	ReduceWall time.Duration
	TotalWall  time.Duration
}

// MaxReducerSkew returns the ratio of the most loaded reducer to the
// mean reducer load (1 = perfectly balanced); it returns 0 when no
// pairs were shuffled.
func (s *Stats) MaxReducerSkew() float64 {
	if s.IntermediatePairs == 0 || len(s.PairsPerReducer) == 0 {
		return 0
	}
	var max int64
	for _, n := range s.PairsPerReducer {
		if n > max {
			max = n
		}
	}
	mean := float64(s.IntermediatePairs) / float64(len(s.PairsPerReducer))
	return float64(max) / mean
}

// MaxMedianReducerSkew returns the ratio of the most loaded reducer to
// the median reducer load — the skew quantile the adaptive-partitioning
// work targets: unlike max/mean it is not diluted by a long tail of
// empty reducers. The median is floored at one pair so the ratio stays
// finite on workloads where most reducers receive nothing; it returns 0
// when no pairs were shuffled.
func (s *Stats) MaxMedianReducerSkew() float64 {
	if s.IntermediatePairs == 0 || len(s.PairsPerReducer) == 0 {
		return 0
	}
	loads := append([]int64(nil), s.PairsPerReducer...)
	slices.Sort(loads)
	med := loads[len(loads)/2]
	if med < 1 {
		med = 1
	}
	return float64(loads[len(loads)-1]) / float64(med)
}

// Add accumulates another job's counters into s (used when an
// algorithm runs several rounds and wants aggregate numbers). Wall
// times add; per-reducer loads add element-wise when the shapes match.
func (s *Stats) Add(o *Stats) {
	s.MapInputRecords += o.MapInputRecords
	s.IntermediatePairs += o.IntermediatePairs
	s.IntermediateBytes += o.IntermediateBytes
	s.ReduceInputKeys += o.ReduceInputKeys
	s.ReduceOutputRecords += o.ReduceOutputRecords
	s.MapAttempts += o.MapAttempts
	s.MapFailures += o.MapFailures
	s.ReduceAttempts += o.ReduceAttempts
	s.ReduceFailures += o.ReduceFailures
	s.ShuffleNetworkBytes += o.ShuffleNetworkBytes
	s.ShuffleNetworkRuns += o.ShuffleNetworkRuns
	s.MapWall += o.MapWall
	s.ReduceWall += o.ReduceWall
	s.TotalWall += o.TotalWall
	if len(s.PairsPerReducer) == len(o.PairsPerReducer) {
		for i := range s.PairsPerReducer {
			s.PairsPerReducer[i] += o.PairsPerReducer[i]
		}
	} else if len(s.PairsPerReducer) == 0 {
		s.PairsPerReducer = append(s.PairsPerReducer, o.PairsPerReducer...)
	}
}

// ReducerKey is the type of an intermediate key: an integer naming the
// reducer its pair goes to, in [0, Config.NumReducers).
type ReducerKey interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// Job describes one map-reduce job over input records of type I,
// intermediate pairs (K, V) and output records of type O. A pair's key
// is its reducer: Map's emit(k, v) sends v to reducer k, and a key
// outside [0, NumReducers) fails the map attempt.
type Job[I any, K ReducerKey, V any, O any] struct {
	Config Config
	// Map transforms one input record into intermediate pairs.
	Map func(in I, emit func(K, V)) error
	// Partition is read by nothing: key k goes to reducer k.
	//
	// Deprecated: the key is the reducer index; the field remains so
	// that existing Job literals compile.
	Partition func(key K, n int) int
	// Reduce folds all values of one reducer — its key — into output
	// records; it runs once per reducer that received values.
	Reduce func(key K, values []V, emit func(O)) error
	// PairBytes sizes an intermediate pair for the byte counters; nil
	// counts pairs only.
	PairBytes func(key K, value V) int
	// EncodePair appends the wire encoding of one intermediate pair to
	// buf and returns the extended slice; DecodePair parses one such
	// record back. Together they are the codec that ships map-side runs
	// between workers (Config.Dist with NumWorkers > 1 requires them) —
	// the engine frames records itself, one per pair, preserving run
	// order. A decoded pair whose key is not the reducer of the run it
	// arrived in is an error.
	EncodePair func(key K, value V, buf []byte) []byte
	DecodePair func(rec []byte) (K, V, error)
	// EncodeOutput appends the wire encoding of one reducer output
	// record to buf; DecodeOutput parses one back. They are the codec
	// the distributed reduce barrier uses to all-gather reducer outputs
	// across workers (Config.Dist with NumWorkers > 1 requires them);
	// in-process jobs never call them.
	EncodeOutput func(out O, buf []byte) []byte
	DecodeOutput func(rec []byte) (O, error)
}

// IdentityPartition returns key as a reducer index.
//
// Deprecated: it is the engine's routing whatever Job.Partition holds;
// it remains so that existing Job literals compile.
func IdentityPartition[K ReducerKey](key K, _ int) int { return int(key) }

// Run executes the job on an in-memory input: RunSplits over slices of
// the given records.
func (j *Job[I, K, V, O]) Run(input []I) ([]O, *Stats, error) {
	return j.RunSplits(len(input), func(lo, hi int, yield func(I) error) error {
		for i := lo; i < hi; i++ {
			if err := yield(input[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// RunSplits executes the job over n input records that the map tasks
// read themselves — a mapper is handed a split and parses its own
// records — and returns the concatenated reducer outputs plus counters.
// Every attempt of a mapper calls read with its split [lo, hi), and
// read passes the split's records, in order, to yield; map tasks call
// it concurrently, a distributed run only for the splits it owns. Map,
// Reduce or read errors abort the job; when several tasks fail, the
// error of the lowest-index task is returned so failures reproduce.
func (j *Job[I, K, V, O]) RunSplits(n int, read func(lo, hi int, yield func(I) error) error) ([]O, *Stats, error) {
	cfg, err := j.Config.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if j.Map == nil || j.Reduce == nil {
		return nil, nil, fmt.Errorf("mapreduce: job %q: Map and Reduce are required", cfg.Name)
	}
	// dist is true only for genuinely multi-worker execution; a
	// DistConfig with NumWorkers == 1 takes the in-process path whole.
	dist := cfg.Dist != nil && cfg.Dist.NumWorkers > 1
	if dist {
		if j.EncodePair == nil || j.DecodePair == nil {
			return nil, nil, fmt.Errorf("mapreduce: job %q: distributed execution requires the EncodePair/DecodePair codec", cfg.Name)
		}
		if j.EncodeOutput == nil || j.DecodeOutput == nil {
			return nil, nil, fmt.Errorf("mapreduce: job %q: distributed execution requires the EncodeOutput/DecodeOutput codec", cfg.Name)
		}
	}
	// cancelled reports the job's cancellation error, nil while the
	// context (if any) is live. Checked before each task attempt and at
	// phase boundaries: a cancelled job never starts another task, so
	// it stops within one task's work and shuffles nothing further.
	cancelled := func() error {
		if cfg.Context == nil {
			return nil
		}
		if cause := context.Cause(cfg.Context); cause != nil {
			return fmt.Errorf("mapreduce: job %q cancelled: %w", cfg.Name, cause)
		}
		return nil
	}
	if err := cancelled(); err != nil {
		return nil, nil, err
	}

	stats := &Stats{
		Job:             cfg.Name,
		MapInputRecords: int64(n),
		PairsPerReducer: make([]int64, cfg.NumReducers),
	}
	pool := cfg.Pool
	if pool == nil {
		// Private to this job and dropped with it, so nothing it recycled
		// is ever handed out again after RunSplits returns.
		pool = NewBufferPool()
	}
	nr := cfg.NumReducers
	start := time.Now()
	tr := cfg.Tracer
	traced := tr != nil
	jobSpan := tr.Start(cfg.TraceParent, trace.KindJob, cfg.Name)
	defer tr.End(jobSpan)

	// ---- map phase ----
	mapSpan := tr.Start(jobSpan, trace.KindPhase, "map")
	mapStart := time.Now()
	nm := min(cfg.NumMappers, n)
	// runs[m][r] holds mapper m's run for reducer r.
	runs := make([][]run[V], nm)
	mapErrs := make([]error, nm)
	mapRuns := make([]taskRun, nm)
	runTasks(cfg.Parallelism, nm, func(m int) {
		if dist && !cfg.Dist.ownsMapper(m) {
			// A remotely-owned mapper runs on its owner; its runs arrive
			// through the network shuffle below.
			return
		}
		if err := cancelled(); err != nil {
			mapErrs[m] = err
			return
		}
		lo := n * m / nm
		hi := n * (m + 1) / nm
		body := func() ([]run[V], error) {
			out := make([]run[V], nr)
			emit := func(k K, v V) {
				if uint(k) >= uint(nr) {
					panic(fmt.Sprintf("mapreduce: job %q: emitted key %v, outside reducers [0, %d)", cfg.Name, k, nr))
				}
				out[k].add(v, pool)
			}
			if err := safeSplit(read, lo, hi, func(in I) error { return j.Map(in, emit) }); err != nil {
				return out, fmt.Errorf("mapreduce: job %q: mapper %d: %w", cfg.Name, m, err)
			}
			// Byte accounting runs inside every attempt — including ones
			// later discarded by fault injection — so the attempt timing
			// covers the work and a discarded attempt's accounting is
			// discarded with its runs, never leaked into Stats.
			if j.PairBytes != nil {
				for r := range out {
					priceRun(&out[r], K(r), j.PairBytes)
				}
			}
			return out, nil
		}
		runs[m], mapErrs[m] = runAttempts(&cfg, "mapper", m, cfg.FailMap, traced, &mapRuns[m], body,
			func(out []run[V]) { recycleRuns(pool, out) })
	})
	for m := range mapRuns {
		stats.MapAttempts += mapRuns[m].attempts
		stats.MapFailures += mapRuns[m].failures
	}
	stats.MapWall = time.Since(mapStart)
	// Task-attempt spans are logged in task order after the phase, so
	// span IDs stay deterministic despite concurrent execution.
	logTaskAttempts(tr, mapSpan, "map", mapRuns)
	tr.End(mapSpan)
	if dist {
		// Exchange stage 1, the map barrier: gather every worker's map
		// accounting and error state so all workers agree on the totals
		// and on whether the map phase failed.
		if err := distMapBarrier(cfg.Dist, stats, mapErrs); err != nil {
			return nil, nil, err
		}
	} else {
		for m, err := range mapErrs {
			if err != nil {
				return nil, nil, fmt.Errorf("%w (mapper %d)", err, m)
			}
		}
	}

	// A cancellation landing between phases stops before the shuffle, so
	// no intermediate pair of this job is ever counted as shuffled.
	if err := cancelled(); err != nil {
		return nil, nil, err
	}
	var netBytes, netRuns int64
	if dist {
		// Exchange stage 2, the network shuffle: ship the runs of
		// remotely-owned reducers, receive the remote runs of our own.
		var err error
		if netBytes, netRuns, err = distExchangeRuns(j, &cfg, runs, nm, pool); err != nil {
			return nil, nil, err
		}
	}

	// ---- shuffle: every reducer's runs, concatenated ----
	// Reducer r's input is in[off[r]:off[r+1]], its runs copied in mapper
	// order — the order a stable merge of one-key runs delivers — into
	// one slab for the job, one task per reducer. Pair and byte totals
	// were folded into the runs by the map phase, and the tracer is
	// untouched per pair: shuffle counters are attached once below.
	shuffleStart := time.Now()
	owned := func(r int) bool { return !dist || cfg.Dist.ownsReducer(r) }
	off := make([]int, nr+1)
	var bytesPerReducer []int64 // what the reduce barrier reports per owned reducer
	if dist {
		bytesPerReducer = make([]int64, nr)
	}
	for r := 0; r < nr; r++ {
		off[r+1] = off[r]
		if !owned(r) {
			// Shuffled and reduced on its owner; its counts and outputs
			// arrive through the reduce barrier.
			continue
		}
		var nb int64
		for m := range runs {
			off[r+1] += runs[m][r].n
			nb += runs[m][r].bytes
		}
		stats.PairsPerReducer[r] = int64(off[r+1] - off[r])
		stats.IntermediateBytes += nb
		if dist {
			bytesPerReducer[r] = nb
		}
	}
	stats.IntermediatePairs = int64(off[nr])
	var in []V
	if off[nr] > 0 {
		in = getBufLen[V](&pool.vals, off[nr])
	}
	runTasks(cfg.Parallelism, nr, func(r int) {
		if owned(r) {
			gatherInput(in[off[r]:off[r+1]], runs, r, pool)
		}
	})
	runs = nil
	if traced {
		tr.Observe(jobSpan, trace.KindPhase, "shuffle", shuffleStart, time.Now())
	}

	// ---- reduce phase ----
	reduceSpan := tr.Start(jobSpan, trace.KindPhase, "reduce")
	reduceStart := time.Now()
	outputs := make([][]O, nr)
	keyCounts := make([]int64, nr)
	redErrs := make([]error, nr)
	redRuns := make([]taskRun, nr)
	runTasks(cfg.Parallelism, nr, func(r int) {
		if err := cancelled(); err != nil {
			redErrs[r] = err
			return
		}
		// The shuffled input is immutable, so retried attempts reuse it.
		vs := in[off[r]:off[r+1]:off[r+1]]
		if len(vs) == 0 {
			return
		}
		body := func() ([]O, error) {
			// An estimate, capped so a selective reducer wastes little.
			out := make([]O, 0, min(len(vs)/2, 4096))
			emit := func(o O) { out = append(out, o) }
			if err := safeReduce(j.Reduce, K(r), vs, emit); err != nil {
				return out, fmt.Errorf("mapreduce: job %q: reducer %d: %w", cfg.Name, r, err)
			}
			return out, nil
		}
		// A discarded reduce attempt holds no pooled buffer: its partial
		// output is simply dropped.
		outputs[r], redErrs[r] = runAttempts(&cfg, "reducer", r, cfg.FailReduce, traced, &redRuns[r], body, func([]O) {})
		if redErrs[r] == nil {
			keyCounts[r] = 1
		}
	})
	// The reduce phase — every retry included — has committed; the
	// shuffled input is dead (outputs are freshly appended []O and Reduce
	// must not retain its values on a shared pool), so it recycles here.
	putBuf(&pool.vals, in)
	for r := range redRuns {
		stats.ReduceAttempts += redRuns[r].attempts
		stats.ReduceFailures += redRuns[r].failures
	}
	stats.ReduceWall = time.Since(reduceStart)

	if dist {
		// Exchange stage 3, the reduce barrier: all-gather outputs and
		// reduce accounting so every worker assembles the complete,
		// bit-identical result and identical global Stats (including the
		// ShuffleNetworkBytes/Runs totals of stage 2).
		if err := distReduceBarrier(j, &cfg, stats, outputs, keyCounts, bytesPerReducer, redErrs, netBytes, netRuns); err != nil {
			tr.End(reduceSpan)
			return nil, nil, err
		}
	}

	total := 0
	for r := range outputs {
		total += len(outputs[r])
	}
	var out []O // stays nil when nothing was emitted
	if total > 0 {
		out = make([]O, 0, total)
	}
	for r := 0; r < cfg.NumReducers; r++ {
		stats.ReduceInputKeys += keyCounts[r]
		out = append(out, outputs[r]...)
	}
	stats.ReduceOutputRecords = int64(len(out))
	logTaskAttempts(tr, reduceSpan, "reduce", redRuns)
	tr.End(reduceSpan)
	for _, err := range redErrs {
		if err != nil {
			return nil, nil, err
		}
	}

	stats.TotalWall = time.Since(start)
	return out, stats, nil
}

// taskAttempt is one task attempt's locally measured timing, logged
// into the tracer after its phase completes so span IDs are assigned
// in deterministic task order.
type taskAttempt struct {
	start, end time.Time
}

// taskRun is one task's retry accounting: the attempts it made, how many
// of them the fault injector failed and, when the job is traced, each
// attempt's wall clock in attempt order.
type taskRun struct {
	attempts, failures int64
	log                []taskAttempt
}

// logTaskAttempts records the per-task attempt spans of one phase. A
// task's attempt #k+1 exists only because attempt #k failed.
func logTaskAttempts(tr *trace.Tracer, phase trace.SpanID, kind string, runs []taskRun) {
	for t := range runs {
		for i, a := range runs[t].log {
			tr.Observe(phase, trace.KindTask, fmt.Sprintf("%s-%d#%d", kind, t, i+1), a.start, a.end)
		}
	}
}

// runAttempts is the engine's one attempt loop, run by every map and
// every reduce task (role names which, for error messages): run body,
// ask the fault injector for its verdict on this attempt number, log
// the attempt, then either commit the result or hand it to discard and
// — after an injected failure with budget left — retry. An injected
// failure takes precedence over body's own error, which is never
// retried. A failed task returns the zero T.
func runAttempts[T any](cfg *Config, role string, task int, fail func(task, attempt int) bool, traced bool, run *taskRun, body func() (T, error), discard func(T)) (T, error) {
	var zero T
	for attempt := 1; ; attempt++ {
		run.attempts++
		var start time.Time
		if traced {
			start = time.Now()
		}
		res, err := body()
		if traced {
			run.log = append(run.log, taskAttempt{start: start, end: time.Now()})
		}
		failed := fail != nil && fail(task, attempt)
		if !failed && err == nil {
			return res, nil
		}
		discard(res)
		if !failed {
			return zero, err
		}
		run.failures++
		if attempt >= cfg.MaxAttempts {
			return zero, fmt.Errorf("mapreduce: job %q: %s %d failed after %d attempts", cfg.Name, role, task, attempt)
		}
	}
}

// safeSplit runs one map attempt over its split, converting panics of
// the reader or the map function into errors so a bad record cannot
// take down the whole process (mirrors Hadoop task isolation).
func safeSplit[I any](read func(lo, hi int, yield func(I) error) error, lo, hi int, mapOne func(I) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("map panic: %v", p)
		}
	}()
	return read(lo, hi, mapOne)
}

// safeReduce is the reduce-side twin of safeSplit.
func safeReduce[K ReducerKey, V any, O any](fn func(K, []V, func(O)) error, k K, vs []V, emit func(O)) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("reduce panic: %v", p)
		}
	}()
	return fn(k, vs, emit)
}

// runTasks executes fn(0..n-1) with at most parallelism concurrent
// invocations. Workers claim task indices from a shared atomic counter
// — one atomic add per task instead of an unbuffered-channel
// rendezvous, which was measurable overhead for the many tiny reduce
// tasks of mark rounds.
func runTasks(parallelism, n int, fn func(i int)) {
	if n == 0 {
		return
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
