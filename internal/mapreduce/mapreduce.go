// Package mapreduce implements the execution substrate of the paper
// (§2): a map-reduce engine with user-defined map and reduce functions,
// a partitioner that assigns intermediate keys to reducers, and a
// shuffle that groups values by key. The engine is an in-process
// simulation of Hadoop-era map-reduce, built for *cost accounting*: it
// counts every intermediate key-value pair and byte moved between the
// map and reduce sides, because the paper's central argument is that
// algorithm quality on map-reduce is governed by the number of
// intermediate pairs produced (§1).
//
// Execution model:
//
//   - the input is divided into NumMappers contiguous splits, each read
//     by its own mapper (RunSplits; Run is the in-memory special case);
//   - each mapper applies Map to its records and emits (K, V) pairs;
//   - each pair is routed to reducer Partition(K, NumReducers);
//   - each mapper key-sorts its per-reducer output runs (stable, so
//     emit order within a key survives), applies the optional Combine
//     hook to each key group, and folds the PairBytes accounting in;
//   - the shuffle merges every reducer's pre-sorted mapper runs in
//     parallel (k-way merge, ties broken by mapper index);
//   - each reducer walks the contiguous key groups of its merged run
//     and applies Reduce to every (key, values) group in ascending key
//     order;
//   - reducer outputs are concatenated in reducer-index order.
//
// The engine is deterministic regardless of goroutine scheduling: the
// merge delivers every key's values in (mapper index, emit order) —
// exactly the order a serial concatenation would — keys are reduced in
// sorted order, and outputs are assembled in reducer order. Task fault
// injection (Config.FailMap / Config.FailReduce with MaxAttempts)
// deterministically re-runs failed attempts, discarding their partial
// output (including its combine and byte accounting), to mirror
// Hadoop's task retry semantics; retried reduce attempts reuse the
// immutable merged input.
//
// When Config.Tracer is set, every run emits a span tree — job →
// map/shuffle/reduce phases → task attempts — with counters that
// mirror the Stats totals exactly (see mwsjoin/internal/trace).
package mapreduce

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/metrics"
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
	// and counters for this job; TraceParent is the span they nest
	// under (0 for a root job span). A nil Tracer costs nothing.
	Tracer      *trace.Tracer
	TraceParent trace.SpanID
	// Metrics, when non-nil, receives the job's live counters and
	// distributions (see the mapreduce_* names in DESIGN.md): flat
	// totals mirroring Stats, per-reducer pair/key/byte histograms,
	// map/reduce task-latency histograms, and the per-job imbalance
	// factor. A nil registry costs nothing.
	Metrics *metrics.Registry
	// Pool recycles the engine's large scratch buffers — sorted-run pair
	// slices, radix scratch, merge-tree intermediates, merged reducer
	// inputs — across task attempts and, when callers share one pool,
	// across the jobs of an execution; see BufferPool for the lifecycle
	// rules. Nil means a pool private to this job, dropped when it
	// returns. Results and Stats never depend on which. On a shared pool
	// Reduce must not retain its values slice after returning.
	Pool *BufferPool
	// SpillBudget, when positive, bounds the bytes (as measured by
	// Job.PairBytes) a mapper keeps in memory for one finalized sorted
	// run: a run over the budget is written to local-disk scratch on
	// SpillFS and re-read by the shuffle's merge, so larger-than-RAM
	// shuffles complete instead of OOMing. Spilling requires SpillFS
	// plus the job's EncodePair/DecodePair codec and PairBytes; jobs
	// missing any of those never spill. Results and every non-Spill*
	// Stats field are bit-identical with and without spilling.
	SpillBudget int64
	// SpillFS hosts spilled runs as uncharged local scratch (see
	// dfs.CreateLocal); required when SpillBudget is positive.
	SpillFS *dfs.FS
	// Dist, when non-nil, runs the job as one SPMD worker of a cluster:
	// task ownership is partitioned by index modulo Dist.NumWorkers,
	// sorted runs destined for remote reducers ship over Dist.Exchanger,
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
	if cfg.SpillBudget > 0 && cfg.SpillFS == nil {
		return cfg, fmt.Errorf("mapreduce: job %q: SpillBudget set without SpillFS", cfg.Name)
	}
	return cfg, nil
}

// Stats reports what a job did. The intermediate counters are the
// paper's communication-cost metric.
type Stats struct {
	Job                 string
	MapInputRecords     int64
	IntermediatePairs   int64 // total (K, V) pairs shuffled to reducers (post-combine)
	IntermediateBytes   int64 // as measured by Job.PairBytes, 0 if unset
	ReduceInputKeys     int64
	ReduceOutputRecords int64
	MapAttempts         int64 // includes failed attempts
	MapFailures         int64
	ReduceAttempts      int64 // includes failed attempts
	ReduceFailures      int64
	// CombineInputPairs / CombineOutputPairs measure the Combine hook's
	// effect: pairs fed to it versus pairs it kept, summed over the
	// successful map attempts. Both are 0 when the job has no combiner;
	// their difference is the shuffle traffic the combiner saved.
	CombineInputPairs  int64
	CombineOutputPairs int64
	// SpilledRuns, SpillBytesWritten and SpillBytesRead count the
	// map-side sorted runs that exceeded Config.SpillBudget and were
	// staged on local-disk scratch until the merge re-read them. Spill
	// I/O is local traffic, uncharged to the DFS counters, so every
	// other field is identical whether a shuffle spilled or stayed in
	// memory. Omitted from JSON when zero, so non-spilling runs (and
	// their chain-checkpoint metadata) serialize exactly as before.
	SpilledRuns       int64 `json:",omitempty"`
	SpillBytesWritten int64 `json:",omitempty"`
	SpillBytesRead    int64 `json:",omitempty"`
	// ShuffleNetworkBytes and ShuffleNetworkRuns count what the
	// distributed run exchange actually shipped between workers: the
	// framed bytes and non-empty sorted runs sent to remotely-owned
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
	s.CombineInputPairs += o.CombineInputPairs
	s.CombineOutputPairs += o.CombineOutputPairs
	s.SpilledRuns += o.SpilledRuns
	s.SpillBytesWritten += o.SpillBytesWritten
	s.SpillBytesRead += o.SpillBytesRead
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

// Job describes one map-reduce job over input records of type I,
// intermediate pairs (K, V) and output records of type O. Keys must be
// ordered so the reduce phase is deterministic.
type Job[I any, K cmp.Ordered, V any, O any] struct {
	Config Config
	// Map transforms one input record into intermediate pairs.
	Map func(in I, emit func(K, V)) error
	// Partition assigns a key to one of n reducers; nil uses a
	// stable default hash of the key.
	Partition func(key K, n int) int
	// Reduce folds all values of one key into output records.
	Reduce func(key K, values []V, emit func(O)) error
	// Combine, when non-nil, is a Hadoop-style combiner applied to
	// each mapper's key-sorted output runs before the shuffle: for
	// every key group the mapper produced, Combine(key, values)
	// replaces the group's values with the returned slice (an empty
	// result drops the key from that run). It must be
	// semantics-preserving for Reduce — reducing a key over any
	// concatenation of combined runs must yield the same output as
	// reducing the raw pairs. The values slice is scratch reused
	// between calls: implementations must not retain it, but may
	// return it (or a prefix of it) — the engine copies the returned
	// values before reuse. Stats.CombineInputPairs /
	// Stats.CombineOutputPairs report its effect; IntermediatePairs,
	// PairsPerReducer and all byte counters measure what is actually
	// shuffled, i.e. the post-combine runs.
	Combine func(key K, values []V) []V
	// PairBytes sizes an intermediate pair for the byte counters; nil
	// counts pairs only.
	PairBytes func(key K, value V) int
	// EncodePair appends the wire encoding of one intermediate pair to
	// buf and returns the extended slice; DecodePair parses one such
	// record back. Together they are the codec that lets map-side
	// sorted runs spill to local disk under Config.SpillBudget — the
	// engine frames records itself, one per pair, preserving run
	// order. Jobs without the codec never spill.
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

// pair is one intermediate key-value emitted by a mapper.
type pair[K cmp.Ordered, V any] struct {
	key K
	val V
}

// pairBatch is the output of one mapper for one reducer: a run of
// pairs that the mapper key-sorts, combines, and sizes before handing
// it to the shuffle, so the shuffle itself never walks pairs serially.
type pairBatch[K cmp.Ordered, V any] struct {
	pairs      []pair[K, V]
	bytes      int64 // Σ PairBytes over pairs; 0 when PairBytes is nil
	combineIn  int64 // pairs fed to Combine
	combineOut int64 // pairs Combine kept
	// spill names the local scratch file holding this run when it
	// exceeded Config.SpillBudget; pairs is then nil until the shuffle
	// re-reads it. n and spillBytes record the spilled pair count and
	// encoded size.
	spill      string
	spillBytes int64
	n          int
}

// finalizeRun turns one mapper's raw per-reducer run into shuffle-ready
// form, inside the parallel map task: a stable key sort (emit order
// within a key survives), the optional combiner applied per key group,
// and the PairBytes accounting folded in. rank, when non-nil, selects
// the linear radix run sort; otherwise a comparison stable sort is
// used.
func finalizeRun[K cmp.Ordered, V any](b *pairBatch[K, V], rank func(K) uint64, combine func(K, []V) []V, pairBytes func(K, V) int, pool *BufferPool) {
	ps := b.pairs
	if len(ps) == 0 {
		return
	}
	if rank != nil {
		ps = radixSortPairs(ps, rank, pool)
		b.pairs = ps
	} else if !slices.IsSortedFunc(ps, func(a, b pair[K, V]) int { return cmp.Compare(a.key, b.key) }) {
		slices.SortStableFunc(ps, func(a, b pair[K, V]) int { return cmp.Compare(a.key, b.key) })
	}
	if combine != nil {
		orig := ps
		var scratch []V
		dst := ps[:0]
		aliased := true // dst still shares ps's backing array
		for lo := 0; lo < len(ps); {
			hi := lo + 1
			for hi < len(ps) && ps[hi].key == ps[lo].key {
				hi++
			}
			k := ps[lo].key
			scratch = scratch[:0]
			for i := lo; i < hi; i++ {
				scratch = append(scratch, ps[i].val)
			}
			vs := combine(k, scratch)
			b.combineIn += int64(hi - lo)
			b.combineOut += int64(len(vs))
			if aliased && len(dst)+len(vs) > hi {
				// An expanding combiner would overwrite pairs not yet
				// consumed; move the output to a fresh backing array.
				dst = append(make([]pair[K, V], 0, len(dst)+len(vs)+len(ps)-hi), dst...)
				aliased = false
			}
			for _, v := range vs {
				dst = append(dst, pair[K, V]{key: k, val: v})
			}
			lo = hi
		}
		if !aliased {
			// The combiner moved the run to a fresh backing array; the
			// original buffer is dead and can be recycled.
			putBuf(&pool.pairs, orig)
		}
		b.pairs = dst
		ps = dst
	}
	if pairBytes != nil {
		var n int64
		for i := range ps {
			n += int64(pairBytes(ps[i].key, ps[i].val))
		}
		b.bytes = n
	}
}

// reducerInput is one reducer's shuffled input: parallel key/value
// slices in merged key order, so every key's values are contiguous.
type reducerInput[K cmp.Ordered, V any] struct {
	keys []K
	vals []V
}

// groupStarts indexes the contiguous key groups of a merged reducer
// input: group g spans keys[starts[g]:starts[g+1]]. keys must be
// non-empty and key-sorted.
func groupStarts[K cmp.Ordered](keys []K, pool *BufferPool) []int {
	starts := append(getBuf[int](&pool.ints, 16), 0)
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1] {
			starts = append(starts, i)
		}
	}
	return append(starts, len(keys))
}

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
	partition := j.Partition
	if partition == nil {
		partition = DefaultPartition[K]
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
	// Spilling needs the pair codec to stage runs on disk and PairBytes
	// to size the budget decision.
	spilling := cfg.SpillBudget > 0 && j.EncodePair != nil && j.DecodePair != nil &&
		j.PairBytes != nil
	var spillSeq atomic.Int64 // attempt-unique scratch file names
	ranker := keyRanker[K]()
	start := time.Now()
	tr := cfg.Tracer
	traced := tr != nil
	// Task attempts are timed when either observability surface wants
	// them: the tracer logs them as spans, the registry as latency
	// histograms.
	timed := traced || cfg.Metrics != nil
	jobSpan := tr.Start(cfg.TraceParent, trace.KindJob, cfg.Name)
	defer tr.End(jobSpan)

	// ---- map phase ----
	mapSpan := tr.Start(jobSpan, trace.KindPhase, "map")
	mapStart := time.Now()
	nm := min(cfg.NumMappers, n)
	// batches[m][r] holds mapper m's sorted run for reducer r.
	batches := make([][]pairBatch[K, V], nm)
	mapErrs := make([]error, nm)
	mapRuns := make([]taskRun, nm)
	runTasks(cfg.Parallelism, nm, func(m int) {
		if dist && !cfg.Dist.ownsMapper(m) {
			// A remotely-owned mapper runs on its owner; its sorted runs
			// arrive through the network shuffle below.
			return
		}
		if err := cancelled(); err != nil {
			mapErrs[m] = err
			return
		}
		lo := n * m / nm
		hi := n * (m + 1) / nm
		body := func() ([]pairBatch[K, V], error) {
			out := make([]pairBatch[K, V], cfg.NumReducers)
			emit := func(k K, v V) {
				r := partition(k, cfg.NumReducers)
				if r < 0 || r >= cfg.NumReducers {
					panic(fmt.Sprintf("mapreduce: job %q: partitioner sent key %v to reducer %d of %d", cfg.Name, k, r, cfg.NumReducers))
				}
				if out[r].pairs == nil {
					out[r].pairs = getBuf[pair[K, V]](&pool.pairs, 0)
				}
				out[r].pairs = append(out[r].pairs, pair[K, V]{key: k, val: v})
			}
			if err := safeSplit(read, lo, hi, func(in I) error { return j.Map(in, emit) }); err != nil {
				return out, fmt.Errorf("mapreduce: job %q: mapper %d: %w", cfg.Name, m, err)
			}
			// Sorting, combining and byte accounting run inside every
			// attempt — including ones later discarded by fault
			// injection, which crash after their spill like a real Hadoop
			// task — so the attempt timing covers the work and a
			// discarded attempt's combine and byte accounting is
			// discarded with its batch, never leaked into Stats.
			for r := range out {
				finalizeRun(&out[r], ranker, j.Combine, j.PairBytes, pool)
				if spilling && out[r].bytes > cfg.SpillBudget && len(out[r].pairs) > 0 {
					// Over-budget runs move to local scratch right here,
					// inside the attempt, so the mapper's memory is
					// bounded no matter how often it retries; the
					// sequence number keeps the scratch names of
					// concurrent mappers and of retries apart.
					name := fmt.Sprintf("spill/%s/run-%d", cfg.Name, spillSeq.Add(1))
					spillBatch(&out[r], cfg.SpillFS, name, j.EncodePair, pool)
				}
			}
			return out, nil
		}
		batches[m], mapErrs[m] = runAttempts(&cfg, "mapper", m, cfg.FailMap, timed, &mapRuns[m], body,
			func(out []pairBatch[K, V]) { recycleBatches(pool, cfg.SpillFS, out) })
	})
	for m := range mapRuns {
		stats.MapAttempts += mapRuns[m].attempts
		stats.MapFailures += mapRuns[m].failures
	}
	if j.Combine != nil {
		for _, bm := range batches { // nil for failed mappers: skipped
			for r := range bm {
				stats.CombineInputPairs += bm[r].combineIn
				stats.CombineOutputPairs += bm[r].combineOut
			}
		}
	}
	stats.MapWall = time.Since(mapStart)
	if traced {
		// Task-attempt spans are logged in task order after the phase,
		// so span IDs stay deterministic despite concurrent execution.
		logTaskAttempts(tr, mapSpan, "map", mapRuns)
		tr.Add(mapSpan, "records_in", stats.MapInputRecords)
		tr.Add(mapSpan, "attempts", stats.MapAttempts)
		tr.Add(mapSpan, "injected_failures", stats.MapFailures)
		if j.Combine != nil {
			tr.Add(mapSpan, "combine_in", stats.CombineInputPairs)
			tr.Add(mapSpan, "combine_out", stats.CombineOutputPairs)
		}
	}
	tr.End(mapSpan)
	// discardSpills removes committed mappers' scratch on the abort
	// paths below, where the shuffle will never consume it.
	discardSpills := func() {
		if !spilling {
			return
		}
		for m := range batches {
			for r := range batches[m] {
				if batches[m][r].spill != "" {
					_ = cfg.SpillFS.Delete(batches[m][r].spill)
					batches[m][r].spill = ""
				}
			}
		}
	}
	if dist {
		// Exchange stage 1, the map barrier: commit this worker's spill
		// accounting while the spill fields are still intact (the run
		// exchange below re-reads remote-destined spills), then gather
		// every worker's map accounting and error state so all workers
		// agree on the totals and on whether the map phase failed.
		var spilledRuns, spillBytes int64
		if spilling {
			for m := range batches {
				for r := range batches[m] {
					if batches[m][r].spill != "" {
						spilledRuns++
						spillBytes += batches[m][r].spillBytes
					}
				}
			}
		}
		if err := distMapBarrier(cfg.Dist, stats, mapErrs, spilledRuns, spillBytes); err != nil {
			discardSpills()
			return nil, nil, err
		}
	} else {
		for m, err := range mapErrs {
			if err != nil {
				discardSpills()
				return nil, nil, fmt.Errorf("%w (mapper %d)", err, m)
			}
		}
	}

	// A cancellation landing between phases stops before the shuffle, so
	// no intermediate pair of this job is ever counted as shuffled.
	if err := cancelled(); err != nil {
		discardSpills()
		return nil, nil, err
	}
	if spilling && !dist {
		// Spill accounting is committed-batch-scoped like every other
		// counter: discarded attempts deleted their scratch above, and
		// each surviving run is written and read exactly once. (The
		// distributed path committed it inside the map barrier.)
		for m := range batches {
			for r := range batches[m] {
				if batches[m][r].spill != "" {
					stats.SpilledRuns++
					stats.SpillBytesWritten += batches[m][r].spillBytes
					stats.SpillBytesRead += batches[m][r].spillBytes
				}
			}
		}
	}
	var netBytes, netRuns int64
	if dist {
		// Exchange stage 2, the network shuffle: ship the sorted runs of
		// remotely-owned reducers, receive the remote runs of our own.
		var err error
		if netBytes, netRuns, err = distExchangeRuns(j, &cfg, batches, nm, pool); err != nil {
			discardSpills()
			return nil, nil, err
		}
	}

	// ---- shuffle: parallel k-way merge of the sorted mapper runs ----
	// Each reducer's merge is one task; pair and byte totals were folded
	// into the runs by the map phase, so no per-pair work remains here.
	// The tracer is deliberately untouched in the merge loop — shuffle
	// counters are attached once per phase below, so a nil tracer adds
	// zero work and zero allocations per pair.
	shuffleStart := time.Now()
	rin := make([]reducerInput[K, V], cfg.NumReducers)
	var bytesPerReducer []int64
	if j.PairBytes != nil {
		bytesPerReducer = make([]int64, cfg.NumReducers)
	}
	var shufErrs []error
	if spilling {
		shufErrs = make([]error, cfg.NumReducers)
	}
	runTasks(cfg.Parallelism, cfg.NumReducers, func(r int) {
		if dist && !cfg.Dist.ownsReducer(r) {
			// A remotely-owned reducer merges and reduces on its
			// owner; its input, key count and outputs arrive through
			// the reduce barrier.
			return
		}
		if spilling {
			// Materialize this reducer's spilled runs just before
			// they are merged, one reducer at a time, so peak memory
			// stays bounded by the merge working set.
			for m := 0; m < nm; m++ {
				if batches[m][r].spill != "" {
					if err := readSpill(&batches[m][r], cfg.SpillFS, j.DecodePair, pool); err != nil {
						shufErrs[r] = err
						return
					}
				}
			}
		}
		var total int
		var nbytes int64
		for m := 0; m < nm; m++ {
			total += len(batches[m][r].pairs)
			nbytes += batches[m][r].bytes
		}
		rin[r] = mergeRuns(batches, r, total, pool)
		if bytesPerReducer != nil {
			bytesPerReducer[r] = nbytes
		}
	})
	for _, err := range shufErrs {
		if err != nil {
			discardSpills()
			return nil, nil, err
		}
	}
	for r := 0; r < cfg.NumReducers; r++ {
		if dist && !cfg.Dist.ownsReducer(r) {
			// Filled in by the reduce barrier from the owner's report.
			continue
		}
		n := int64(len(rin[r].keys))
		stats.PairsPerReducer[r] = n
		stats.IntermediatePairs += n
		if bytesPerReducer != nil {
			stats.IntermediateBytes += bytesPerReducer[r]
		}
	}
	batches = nil
	if traced {
		shuffleSpan := tr.Observe(jobSpan, trace.KindPhase, "shuffle", shuffleStart, time.Now())
		var maxPairs, hot int64
		for r, n := range stats.PairsPerReducer {
			if n > maxPairs {
				maxPairs, hot = n, int64(r)
			}
		}
		tr.Add(shuffleSpan, "pairs", stats.IntermediatePairs)
		tr.Add(shuffleSpan, "bytes", stats.IntermediateBytes)
		tr.Add(shuffleSpan, "reducers", int64(cfg.NumReducers))
		tr.Add(shuffleSpan, "max_reducer_pairs", maxPairs)
		tr.Add(shuffleSpan, "hot_reducer", hot)
		if stats.SpilledRuns > 0 {
			// Attached only when something spilled, so traces of
			// in-memory shuffles are byte-identical to before.
			tr.Add(shuffleSpan, "spilled_runs", stats.SpilledRuns)
			tr.Add(shuffleSpan, "spill_bytes_written", stats.SpillBytesWritten)
			tr.Add(shuffleSpan, "spill_bytes_read", stats.SpillBytesRead)
		}
	}

	// ---- reduce phase ----
	reduceSpan := tr.Start(jobSpan, trace.KindPhase, "reduce")
	reduceStart := time.Now()
	outputs := make([][]O, cfg.NumReducers)
	keyCounts := make([]int64, cfg.NumReducers)
	redErrs := make([]error, cfg.NumReducers)
	redRuns := make([]taskRun, cfg.NumReducers)
	runTasks(cfg.Parallelism, cfg.NumReducers, func(r int) {
		if err := cancelled(); err != nil {
			redErrs[r] = err
			return
		}
		in := rin[r]
		if len(in.keys) == 0 {
			return
		}
		// The merged run already holds each key's values contiguously
		// in (mapper index, emit order); index its group boundaries
		// once — the view is derived from the immutable shuffle output,
		// so retried attempts reuse it; recycle once the task is done.
		starts := groupStarts(in.keys, pool)
		defer putBuf(&pool.ints, starts)
		body := func() ([]O, error) {
			// An estimate, capped so a selective reducer wastes little.
			out := make([]O, 0, min(len(in.keys)/2, 4096))
			emit := func(o O) { out = append(out, o) }
			for g := 0; g+1 < len(starts); g++ {
				glo, ghi := starts[g], starts[g+1]
				k := in.keys[glo]
				if err := safeReduce(j.Reduce, k, in.vals[glo:ghi:ghi], emit); err != nil {
					return out, fmt.Errorf("mapreduce: job %q: reducer %d key %v: %w", cfg.Name, r, k, err)
				}
			}
			return out, nil
		}
		// A discarded reduce attempt holds no pooled buffer: its partial
		// output is simply dropped.
		outputs[r], redErrs[r] = runAttempts(&cfg, "reducer", r, cfg.FailReduce, timed, &redRuns[r], body, func([]O) {})
		if redErrs[r] == nil {
			keyCounts[r] = int64(len(starts) - 1)
		}
	})
	// The reduce phase — every retry included — has committed; the merged inputs are dead (outputs are freshly
	// appended []O and Reduce must not retain the values slice of a job
	// on a shared pool), so the big key/value arrays recycle here.
	for r := range rin {
		putBuf(&pool.keys, rin[r].keys)
		putBuf(&pool.vals, rin[r].vals)
		rin[r] = reducerInput[K, V]{}
	}
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
	if traced {
		logTaskAttempts(tr, reduceSpan, "reduce", redRuns)
		tr.Add(reduceSpan, "keys", stats.ReduceInputKeys)
		tr.Add(reduceSpan, "records_out", stats.ReduceOutputRecords)
		tr.Add(reduceSpan, "attempts", stats.ReduceAttempts)
		tr.Add(reduceSpan, "injected_failures", stats.ReduceFailures)
	}
	tr.End(reduceSpan)
	for _, err := range redErrs {
		if err != nil {
			return nil, nil, err
		}
	}

	stats.TotalWall = time.Since(start)
	if traced {
		// Job-level counters mirror the Stats totals exactly, so a
		// trace can be cross-checked against (and decomposes) the flat
		// per-job accounting.
		tr.Add(jobSpan, "pairs", stats.IntermediatePairs)
		tr.Add(jobSpan, "bytes", stats.IntermediateBytes)
		tr.Add(jobSpan, "records_in", stats.MapInputRecords)
		tr.Add(jobSpan, "keys", stats.ReduceInputKeys)
		tr.Add(jobSpan, "records_out", stats.ReduceOutputRecords)
		tr.Add(jobSpan, "map_attempts", stats.MapAttempts)
		tr.Add(jobSpan, "map_failures", stats.MapFailures)
		tr.Add(jobSpan, "reduce_attempts", stats.ReduceAttempts)
		tr.Add(jobSpan, "reduce_failures", stats.ReduceFailures)
		if j.Combine != nil {
			tr.Add(jobSpan, "combine_in", stats.CombineInputPairs)
			tr.Add(jobSpan, "combine_out", stats.CombineOutputPairs)
		}
	}
	recordMetrics(cfg.Metrics, stats, j.Combine != nil, keyCounts, bytesPerReducer, mapRuns, redRuns)
	return out, stats, nil
}

// ReducerPairsHistogram is the registry histogram observing every
// reducer's intermediate pair count across jobs — the distribution
// behind the skew quantiles reported by the bench harness.
const ReducerPairsHistogram = "mapreduce_reducer_pairs"

// recordMetrics publishes one finished job into the live registry: flat
// counters mirroring Stats exactly, per-reducer pair/key/byte
// distributions, task-attempt latency distributions, and the job's
// imbalance factor. A nil registry records nothing.
func recordMetrics(m *metrics.Registry, stats *Stats, hasCombine bool, keyCounts, bytesPerReducer []int64, mapRuns, redRuns []taskRun) {
	if m == nil {
		return
	}
	m.Counter("mapreduce_jobs_total").Add(1)
	m.Counter("mapreduce_map_input_records_total").Add(stats.MapInputRecords)
	m.Counter("mapreduce_intermediate_pairs_total").Add(stats.IntermediatePairs)
	m.Counter("mapreduce_intermediate_bytes_total").Add(stats.IntermediateBytes)
	m.Counter("mapreduce_reduce_input_keys_total").Add(stats.ReduceInputKeys)
	m.Counter("mapreduce_reduce_output_records_total").Add(stats.ReduceOutputRecords)
	m.Counter("mapreduce_map_attempts_total").Add(stats.MapAttempts)
	m.Counter("mapreduce_map_failures_total").Add(stats.MapFailures)
	m.Counter("mapreduce_reduce_attempts_total").Add(stats.ReduceAttempts)
	m.Counter("mapreduce_reduce_failures_total").Add(stats.ReduceFailures)
	if hasCombine {
		// Registered only for combiner jobs, so scrapes of combiner-free
		// workloads are byte-identical to the pre-combiner engine.
		m.Counter("mapreduce_combine_input_pairs_total").Add(stats.CombineInputPairs)
		m.Counter("mapreduce_combine_output_pairs_total").Add(stats.CombineOutputPairs)
	}
	if stats.SpilledRuns > 0 {
		// Registered only when something spilled, so scrapes of
		// in-memory workloads are byte-identical to before.
		m.Counter("mapreduce_spilled_runs_total").Add(stats.SpilledRuns)
		m.Counter("mapreduce_spill_bytes_written_total").Add(stats.SpillBytesWritten)
		m.Counter("mapreduce_spill_bytes_read_total").Add(stats.SpillBytesRead)
	}

	pairsH := m.Histogram("mapreduce_reducer_pairs")
	keysH := m.Histogram("mapreduce_reducer_keys")
	var bytesH *metrics.Histogram
	if bytesPerReducer != nil {
		bytesH = m.Histogram("mapreduce_reducer_bytes")
	}
	for r, pairs := range stats.PairsPerReducer {
		pairsH.Observe(pairs)
		keysH.Observe(keyCounts[r])
		if bytesPerReducer != nil {
			bytesH.Observe(bytesPerReducer[r])
		}
	}
	// The imbalance factor ×1000, so the log buckets resolve fractions.
	imb := int64(stats.MaxReducerSkew() * 1000)
	m.Gauge("mapreduce_last_job_imbalance_x1000").Set(imb)
	m.Histogram("mapreduce_job_imbalance_x1000").Observe(imb)

	mapH := m.Histogram("mapreduce_map_task_micros")
	for _, t := range mapRuns {
		for _, a := range t.log {
			mapH.Observe(a.end.Sub(a.start).Microseconds())
		}
	}
	redH := m.Histogram("mapreduce_reduce_task_micros")
	for _, t := range redRuns {
		for _, a := range t.log {
			redH.Observe(a.end.Sub(a.start).Microseconds())
		}
	}
}

// taskAttempt is one task attempt's locally measured timing, logged
// into the tracer after its phase completes so span IDs are assigned
// in deterministic task order.
type taskAttempt struct {
	start, end time.Time
	failed     bool
}

// taskRun is one task's retry accounting: the attempts it made, how many
// of them the fault injector failed and, when the job is timed, each
// attempt's wall clock in attempt order.
type taskRun struct {
	attempts, failures int64
	log                []taskAttempt
}

// logTaskAttempts records the per-task attempt spans of one phase.
func logTaskAttempts(tr *trace.Tracer, phase trace.SpanID, kind string, runs []taskRun) {
	for t := range runs {
		for i, a := range runs[t].log {
			id := tr.Observe(phase, trace.KindTask, fmt.Sprintf("%s-%d#%d", kind, t, i+1), a.start, a.end)
			if a.failed {
				tr.Add(id, "injected_failure", 1)
			}
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
func runAttempts[T any](cfg *Config, role string, task int, fail func(task, attempt int) bool, timed bool, run *taskRun, body func() (T, error), discard func(T)) (T, error) {
	var zero T
	for attempt := 1; ; attempt++ {
		run.attempts++
		var a taskAttempt
		if timed {
			a.start = time.Now()
		}
		res, err := body()
		if timed {
			a.end = time.Now()
		}
		a.failed = fail != nil && fail(task, attempt)
		if timed {
			run.log = append(run.log, a)
		}
		if !a.failed && err == nil {
			return res, nil
		}
		discard(res)
		if !a.failed {
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
func safeReduce[K cmp.Ordered, V any, O any](fn func(K, []V, func(O)) error, k K, vs []V, emit func(O)) (err error) {
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
