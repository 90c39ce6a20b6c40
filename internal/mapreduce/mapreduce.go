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
//     by its own mapper: even ones (RunSplits; Run is the in-memory
//     special case) or ones the caller cuts (RunBlocks, whose Cut also
//     places a cluster's reducers);
//   - each mapper applies Map to its records and emits (K, V) pairs;
//     value v of key k is appended to the mapper's run for reducer k;
//   - each mapper folds the PairBytes accounting into its runs;
//   - the shuffle concatenates every reducer's runs in mapper order, in
//     parallel across reducers;
//   - Reduce runs once per reducer that received values, its outputs
//     appended to a run of pooled chunks like a map run's;
//   - the job's output is one slice of exactly the runs' total length,
//     each run copied into it once, in reducer-index order.
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
	// Pool recycles the engine's large scratch buffers — the chunks map
	// runs and reducer outputs live in, and the shuffled reducer inputs —
	// across task attempts and, when callers share one pool, across
	// jobs: the spatial executor passes one pool for the whole process,
	// so concurrent executions share it. A pool retains at most
	// MaxPoolBytes; see
	// BufferPool for the lifecycle rules. Nil means a pool private to
	// this job, dropped when it returns. Results and Stats never depend
	// on which. On a shared pool Reduce must not retain its values slice
	// after returning.
	Pool *BufferPool
	// Dist, when non-nil, runs the job as one SPMD worker of a cluster:
	// each worker runs a contiguous range of the mappers, each
	// reducer runs on the worker the job's Cut names, runs destined for
	// remote reducers ship over Dist.Exchanger, and the reduce barrier
	// all-gathers outputs so every worker returns the complete,
	// bit-identical result (see dist.go). NumWorkers == 1
	// is exactly the in-process engine. Distribution with NumWorkers > 1
	// requires the Job's Values and Outputs codecs and an explicit
	// NumMappers.
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
	// Values and Outputs are the wire forms of the job's intermediate
	// values and of its outputs: what a distributed run ships in its run
	// exchange and gathers at its reduce barrier (Config.Dist with
	// NumWorkers > 1 requires both). A pair travels as its value alone:
	// its key is the reducer its run names. In-process jobs never call
	// them.
	Values  Codec[V]
	Outputs Codec[O]
}

// Codec is the wire form of one type a distributed job ships. Records
// delimit themselves, so the engine frames a run or a reducer's outputs
// as a count followed by that many records back to back; the three
// functions must agree with one another.
type Codec[T any] struct {
	// Size is the number of bytes Append writes for v.
	Size func(v T) int
	// Append appends v's record to buf and returns the extended slice.
	Append func(buf []byte, v T) []byte
	// Read parses the record at the front of buf and returns it and the
	// bytes after it. It takes at least one byte, and what it keeps of
	// buf it copies: the engine reuses a payload once it is decoded.
	Read func(buf []byte) (T, []byte, error)
}

// complete reports whether every function of c is set.
func (c *Codec[T]) complete() bool { return c.Size != nil && c.Append != nil && c.Read != nil }

// read parses one record from the front of buf, holding Read to its
// contract: a record takes at least one byte and no more than buf holds.
func (c *Codec[T]) read(buf []byte) (T, []byte, error) {
	v, rest, err := c.Read(buf)
	if err == nil && (len(rest) >= len(buf) || len(rest) > 0 && &rest[0] != &buf[len(buf)-len(rest)]) {
		err = fmt.Errorf("mapreduce: dist frame: a record read took %d of %d bytes", len(buf)-len(rest), len(buf))
	}
	return v, rest, err
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
// The splits are even: of nm mappers, mapper m reads [n·m/nm,
// n·(m+1)/nm). Every attempt of a mapper calls read with its split
// [lo, hi), and read passes the split's records, in order, to yield; map
// tasks call it concurrently, a distributed run only for the splits it
// owns. Map, Reduce or read errors abort the job; when several tasks
// fail, the error of the lowest-index task is returned so failures
// reproduce.
func (j *Job[I, K, V, O]) RunSplits(n int, read func(lo, hi int, yield func(I) error) error) ([]O, *Stats, error) {
	out, _, st, err := j.RunBlocks(n, EvenSplits(n), read)
	return out, st, err
}

// Cut is how a job divides its work (RunBlocks): its input among its map
// splits and, on a cluster of W > 1 workers, its reducers among the
// workers. Mapper m of nm runs on worker ⌊m·W/nm⌋ (OwnedMappers), so a
// caller that cuts splits along its reducers' keys places each reducer
// with the worker that maps most of its pairs, and only the rest ship.
type Cut struct {
	// Bounds are the nm+1 split bounds, ascending from 0 to n: mapper m
	// reads [Bounds[m], Bounds[m+1]), which may be empty.
	Bounds []int
	// Owner names the worker of each reducer, one entry in [0, W) per
	// reducer; nil deals them in contiguous blocks, reducer r of nr to
	// worker ⌊r·W/nr⌋. An in-process job reads none of it.
	Owner []int
}

// EvenSplits is RunSplits' cut of n records: nm splits as even as whole
// records allow, the reducers dealt in blocks.
func EvenSplits(n int) func(nm, workers int) Cut {
	return func(nm, _ int) Cut {
		bounds := make([]int, nm+1)
		for m := 1; m <= nm; m++ {
			bounds[m] = n * m / nm
		}
		return Cut{Bounds: bounds}
	}
}

// OwnedMappers is the range [lo, hi) of the mappers worker w of W runs
// among nm: those m with ⌊m·W/nm⌋ = w.
func OwnedMappers(w, W, nm int) (lo, hi int) {
	return (w*nm + W - 1) / W, ((w+1)*nm + W - 1) / W
}

// RunBlocks is RunSplits over a cut the caller makes: cut(nm, W) returns
// the Cut of the job's nm map splits — NumMappers, or its default, at
// most n — on W workers (1 for an in-process job). A distributed run
// calls cut on every worker and must get the same Cut everywhere.
// Beside the outputs, it returns where each reducer's end: reducer r's
// outputs are out[ends[r-1]:ends[r]], from 0 for reducer 0. Bounds that
// are not nm+1 ascending ones from 0 to n, or owners that are not one
// worker per reducer, fail the job.
func (j *Job[I, K, V, O]) RunBlocks(n int, cut func(nm, workers int) Cut, read func(lo, hi int, yield func(I) error) error) ([]O, []int, *Stats, error) {
	cfg, err := j.Config.withDefaults()
	if err != nil {
		return nil, nil, nil, err
	}
	if j.Map == nil || j.Reduce == nil {
		return nil, nil, nil, fmt.Errorf("mapreduce: job %q: Map and Reduce are required", cfg.Name)
	}
	// dist is true only for genuinely multi-worker execution; a
	// DistConfig with NumWorkers == 1 takes the in-process path whole.
	dist := cfg.Dist != nil && cfg.Dist.NumWorkers > 1
	if dist && (!j.Values.complete() || !j.Outputs.complete()) {
		return nil, nil, nil, fmt.Errorf("mapreduce: job %q: distributed execution requires the Values and Outputs codecs", cfg.Name)
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
		return nil, nil, nil, err
	}

	nm := min(cfg.NumMappers, n)
	self, workers := 0, 1
	if dist {
		self, workers = cfg.Dist.Self, cfg.Dist.NumWorkers
	}
	c := cut(nm, workers)
	bounds, owner := c.Bounds, c.Owner
	err = checkSplits(bounds, nm, n)
	if err == nil && dist {
		owner, err = checkOwners(owner, cfg.NumReducers, workers)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("mapreduce: job %q: %w", cfg.Name, err)
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
	// runs[m][r] holds mapper m's run for reducer r.
	runs := make([][]run[V], nm)
	mapErrs := make([]error, nm)
	mapRuns := make([]taskRun, nm)
	ownLo, ownHi := OwnedMappers(self, workers, nm)
	runTasks(cfg.Parallelism, nm, func(m int) {
		if m < ownLo || m >= ownHi {
			// A remotely-owned mapper runs on its owner; its runs arrive
			// through the network shuffle below.
			return
		}
		if err := cancelled(); err != nil {
			mapErrs[m] = err
			return
		}
		lo, hi := bounds[m], bounds[m+1]
		body := func() ([]run[V], error) {
			out := getRuns[V](pool, nr)
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
	if !dist {
		// A distributed run learns whether the map phase failed anywhere
		// from the map reports at the head of its run exchange below.
		for m, err := range mapErrs {
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%w (mapper %d)", err, m)
			}
		}
	}

	// A cancellation landing between phases stops before the shuffle, so
	// no intermediate pair of this job is ever counted as shuffled.
	if err := cancelled(); err != nil {
		return nil, nil, nil, err
	}
	if dist {
		// The first exchange, the network shuffle, agrees on the map
		// accounting, sends the runs of remotely-owned reducers out and
		// brings the remote runs of our own in.
		if err := distExchangeRuns(j, &cfg, stats, runs, mapErrs, owner, pool); err != nil {
			return nil, nil, nil, err
		}
	}

	// ---- shuffle: every reducer's runs, concatenated ----
	// Reducer r's input is in[off[r]:off[r+1]], its runs copied in mapper
	// order — the order a stable merge of one-key runs delivers — into
	// one slab for the job, one task per reducer. Pair and byte totals
	// were folded into the runs by the map phase, and the tracer is
	// untouched per pair: shuffle counters are attached once below.
	shuffleStart := time.Now()
	owned := func(r int) bool { return !dist || owner[r] == self }
	off := make([]int, nr+1)
	for r := 0; r < nr; r++ {
		off[r+1] = off[r]
		if !owned(r) {
			// Shuffled and reduced on its owner; its counts and outputs
			// arrive through the reduce barrier.
			continue
		}
		for m := range runs {
			off[r+1] += runs[m][r].n
			stats.IntermediateBytes += runs[m][r].bytes
		}
		stats.PairsPerReducer[r] = int64(off[r+1] - off[r])
	}
	var in []V
	if off[nr] > 0 {
		in = getBufLen[V](&pool.vals, off[nr])
	}
	runTasks(cfg.Parallelism, nr, func(r int) {
		if owned(r) {
			gatherInput(in[off[r]:off[r+1]], runs, r, pool)
		}
	})
	for _, rs := range runs {
		putBuf(&pool.sets, rs) // every run drained or shipped: empty
	}
	runs = nil
	if traced {
		tr.Observe(jobSpan, trace.KindPhase, "shuffle", shuffleStart, time.Now())
	}

	// ---- reduce phase ----
	// Each reducer's outputs go into a run of pooled chunks, so a large
	// reducer's output is never copied while it grows; the job's output
	// is assembled from the runs once, at its exact size.
	reduceSpan := tr.Start(jobSpan, trace.KindPhase, "reduce")
	reduceStart := time.Now()
	// The runs array and each run's chunk list are a finished job's,
	// from the pool.
	outputs := getRuns[O](pool, nr)
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
		spare := outputs[r].chunks
		body := func() (run[O], error) {
			out := run[O]{chunks: spare}
			emit := func(o O) { out.add(o, pool) }
			if err := safeReduce(j.Reduce, K(r), vs, emit); err != nil {
				return out, fmt.Errorf("mapreduce: job %q: reducer %d: %w", cfg.Name, r, err)
			}
			return out, nil
		}
		outputs[r], redErrs[r] = runAttempts(&cfg, "reducer", r, cfg.FailReduce, traced, &redRuns[r], body,
			func(out run[O]) { out.recycle(pool); spare = out.chunks })
	})
	// The reduce phase — every retry included — has committed; the
	// shuffled input is dead (outputs are copies in their own chunks, and
	// Reduce must not retain its values on a shared pool), so it recycles
	// here.
	putBuf(&pool.vals, in)
	for r := range redRuns {
		stats.ReduceAttempts += redRuns[r].attempts
		stats.ReduceFailures += redRuns[r].failures
	}
	stats.ReduceWall = time.Since(reduceStart)

	if dist {
		// The second exchange, the reduce barrier: all-gather outputs and
		// reduce accounting so every worker assembles the complete,
		// bit-identical result and identical global Stats (including the
		// ShuffleNetworkBytes/Runs totals of the run exchange).
		if err := distReduceBarrier(j, &cfg, stats, outputs, redErrs, owner, pool); err != nil {
			recycleRuns(pool, outputs)
			putBuf(&pool.sets, outputs)
			tr.End(reduceSpan)
			return nil, nil, nil, err
		}
	}

	var redErr error
	for _, err := range redErrs {
		if err != nil {
			redErr = err
			break
		}
	}
	var out []O
	var ends []int
	if redErr != nil {
		recycleRuns(pool, outputs)
	} else {
		ends = make([]int, nr)
		for r, at := 0, 0; r < nr; r++ {
			at += outputs[r].n
			ends[r] = at
		}
		out = gatherOutput(outputs, pool, cfg.Dist.Slabs())
	}
	putBuf(&pool.sets, outputs) // every run drained or recycled: empty
	// A reducer's one key is an input key when pairs reached it.
	for _, p := range stats.PairsPerReducer {
		stats.IntermediatePairs += p
		if p > 0 {
			stats.ReduceInputKeys++
		}
	}
	stats.ReduceOutputRecords = int64(len(out))
	logTaskAttempts(tr, reduceSpan, "reduce", redRuns)
	tr.End(reduceSpan)
	if redErr != nil {
		return nil, nil, nil, redErr
	}

	stats.TotalWall = time.Since(start)
	return out, ends, stats, nil
}

// checkSplits reports bounds that are not the nm+1 ascending split
// bounds of n records.
func checkSplits(bounds []int, nm, n int) error {
	if len(bounds) != nm+1 || bounds[0] != 0 || bounds[nm] != n {
		return fmt.Errorf("%d split bounds %v, want %d from 0 to %d", len(bounds), bounds, nm+1, n)
	}
	for m := 1; m < len(bounds); m++ {
		if bounds[m] < bounds[m-1] {
			return fmt.Errorf("split bounds %v descend", bounds)
		}
	}
	return nil
}

// checkOwners returns a distributed job's owner table — owner, or the
// blocks a nil one stands for — or reports one that is not a worker of
// W for each of nr reducers.
func checkOwners(owner []int, nr, W int) ([]int, error) {
	if owner == nil {
		owner = make([]int, nr)
		for r := range owner {
			owner[r] = r * W / nr
		}
	}
	if len(owner) != nr {
		return nil, fmt.Errorf("%d reducer owners for %d reducers", len(owner), nr)
	}
	for r, w := range owner {
		if w < 0 || w >= W {
			return nil, fmt.Errorf("reducer %d owned by worker %d, of %d", r, w, W)
		}
	}
	return owner, nil
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
