package mapreduce

// Distributed execution (SPMD): every worker of a cluster runs the same
// deterministic Job over the same input, but task *ownership* is
// partitioned — mapper m belongs to worker m mod W, reducer r to worker
// r mod W — and a job makes two exchanges:
//
//  1. the network shuffle: each worker's payload to a peer starts with
//     its map report (map attempts, map failures, its lowest-index map
//     error), so every worker agrees on the job's MapAttempts/MapFailures
//     totals and on whether (and how) the map phase failed; then come
//     the EncodePair-framed runs destined for the peer's reducers, none
//     when the sender's map phase failed, so the shuffle sees exactly
//     the runs[m][r] matrix an in-process run builds;
//  2. a reduce barrier all-gathering the EncodeOutput-framed reducer
//     outputs, each reducer's pair count and the reduce accounting, so
//     every worker finishes the job with the complete output slice and
//     identical Stats.
//
// Because the shuffle delivers a reducer's values in (mapper index,
// emit order) no matter which worker produced the run, and outputs are
// assembled in reducer-index order, a distributed run is bit-identical
// to the in-process engine; the only new Stats are the
// ShuffleNetworkBytes/ShuffleNetworkRuns family counting the run
// records the shuffle actually shipped. A DistConfig with
// NumWorkers == 1 degenerates to the in-process engine exactly (no
// exchange runs, network counters stay zero).

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Exchanger is one collective data-plane primitive connecting the W
// workers of a distributed job. Calls must happen in the same order on
// every worker (the SPMD engine guarantees this); implementations match
// the w-th call on one worker with the w-th call on every other.
type Exchanger interface {
	// AllToAll sends outgoing[w] to worker w (outgoing[self] is returned
	// locally without touching the network) and returns the payloads
	// received from every worker, indexed by worker. tag labels the
	// exchange for diagnostics only. An implementation keeps no reference
	// to outgoing once it returns: the engine puts its payloads back in
	// its pool then, to be encoded over by its next exchange, so a fabric
	// that delivers after returning must copy what it carries. The engine
	// decodes what a call returns before it makes its next call and keeps
	// no byte of it (DecodePair and DecodeOutput copy), so an
	// implementation may reuse the memory of the payloads it returned
	// from its next call on.
	AllToAll(tag string, outgoing [][]byte) ([][]byte, error)
}

// DistConfig distributes a job across a cluster of SPMD workers. All
// workers must run the identical job — same input, same config, same
// deterministic Map/Reduce — differing only in Self.
type DistConfig struct {
	// NumWorkers is the cluster width W; 1 means the in-process
	// degenerate case (Exchanger may then be nil).
	NumWorkers int
	// Self is this worker's index in [0, NumWorkers).
	Self int
	// Exchanger is the data plane; required when NumWorkers > 1.
	Exchanger Exchanger
}

// owns reports whether this worker executes task t, a mapper or a
// reducer: the one ownership rule of both phases.
func (d *DistConfig) owns(t int) bool { return t%d.NumWorkers == d.Self }

// validate checks the distributed knobs at config time. numMappers is
// the pre-default value: a W>1 job must pin NumMappers explicitly,
// because the GOMAXPROCS default is machine-dependent and the split
// boundaries decide task ownership.
func (d *DistConfig) validate(job string, numMappers int) error {
	if d.NumWorkers <= 0 {
		return fmt.Errorf("mapreduce: job %q: DistConfig.NumWorkers must be positive, got %d", job, d.NumWorkers)
	}
	if d.Self < 0 || d.Self >= d.NumWorkers {
		return fmt.Errorf("mapreduce: job %q: DistConfig.Self %d out of range [0,%d)", job, d.Self, d.NumWorkers)
	}
	if d.NumWorkers > 1 {
		if d.Exchanger == nil {
			return fmt.Errorf("mapreduce: job %q: DistConfig.NumWorkers > 1 requires an Exchanger", job)
		}
		if numMappers <= 0 {
			return fmt.Errorf("mapreduce: job %q: distributed execution requires an explicit NumMappers (the GOMAXPROCS default is machine-dependent)", job)
		}
	}
	return nil
}

// appendUvarints appends each of vs in varint encoding.
func appendUvarints(buf []byte, vs ...uint64) []byte {
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// readUvarint consumes one varint from buf. Only the shortest encoding
// of a value is accepted, the one appendUvarints writes, so a frame that
// decodes re-encodes to the same bytes.
func readUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, errors.New("mapreduce: dist frame: truncated varint")
	}
	if n != uvarintLen(v) {
		return 0, nil, errors.New("mapreduce: dist frame: overlong varint")
	}
	return v, buf[n:], nil
}

// readBytes consumes one length-prefixed byte string from buf.
func readBytes(buf []byte) ([]byte, []byte, error) {
	n, rest, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(rest)) < n {
		return nil, nil, errors.New("mapreduce: dist frame: truncated record")
	}
	return rest[:n], rest[n:], nil
}

// uvarintLen is the number of bytes appendUvarints writes for v.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// checkCount rejects an entry count a payload cannot hold: every entry
// (a length-prefixed record) takes at least one byte, so a claim beyond
// the bytes that remain is a lie.
func checkCount(what string, n uint64, remaining int) error {
	if n > uint64(remaining) {
		return fmt.Errorf("mapreduce: dist frame: %d %s declared with %d bytes left", n, what, remaining)
	}
	return nil
}

// taskError is one worker's lowest-index failed task, flattened for the
// wire. Each exchange returns the globally lowest index so every worker
// surfaces the same error the in-process engine would (it reports the
// lowest-index failed task).
type taskError struct {
	idx int
	msg string
}

// firstError is the lowest-index error of errs, a phase's per-task
// errors, its message written by msg; idx is -1 when no task failed.
func firstError(errs []error, msg func(task int, err error) string) taskError {
	for t, err := range errs {
		if err != nil {
			return taskError{t, msg(t, err)}
		}
	}
	return taskError{idx: -1}
}

// merge keeps the lower-index error.
func (e *taskError) merge(o taskError) {
	if o.idx >= 0 && (e.idx < 0 || o.idx < e.idx) {
		*e = o
	}
}

func (e *taskError) append(buf []byte) []byte {
	buf = appendUvarints(buf, uint64(int64(e.idx)+1), uint64(len(e.msg))) // idx -1 (none) encodes as 0
	return append(buf, e.msg...)
}

// parse decodes one taskError of a job with tasks tasks into e. An
// index beyond the job's tasks, or a message without a task, is an
// error, so an accepted frame re-encodes to the same bytes.
func (e *taskError) parse(buf []byte, tasks int) ([]byte, error) {
	idx, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	msg, buf, err := readBytes(buf)
	if err != nil {
		return nil, err
	}
	switch {
	case idx > uint64(tasks):
		return nil, fmt.Errorf("mapreduce: dist frame: an error of task %d, of %d tasks", idx-1, tasks)
	case idx == 0 && len(msg) > 0:
		return nil, errors.New("mapreduce: dist frame: an error message without a task")
	}
	e.idx, e.msg = int(idx)-1, string(msg)
	return buf, nil
}

// reportLen bounds the bytes appendReport writes for n counters and e.
func reportLen(n int, e taskError) int {
	return (n+2)*binary.MaxVarintLen64 + len(e.msg)
}

// appendReport encodes one worker's report of a phase it ran part of:
// its counters, then its lowest-index failed task. Both exchanges of a
// job carry one: the run payloads the map report, the reduce barrier's
// payload the reduce report.
func appendReport(buf []byte, c []int64, e taskError) []byte {
	for _, v := range c {
		buf = appendUvarints(buf, uint64(v))
	}
	return e.append(buf)
}

// parseReport decodes the report at the head of buf, of len(c) counters
// and a phase of tasks tasks, into c and e, and returns the bytes after
// it.
func parseReport(buf []byte, c []int64, e *taskError, tasks int) ([]byte, error) {
	for i := range c {
		v, rest, err := readUvarint(buf)
		if err != nil {
			return nil, err
		}
		c[i], buf = int64(v), rest
	}
	return e.parse(buf, tasks)
}

// distGather all-gathers one payload: every worker receives every
// worker's payload, indexed by worker.
func distGather(d *DistConfig, tag string, payload []byte) ([][]byte, error) {
	outgoing := make([][]byte, d.NumWorkers)
	for w := range outgoing {
		outgoing[w] = payload
	}
	return d.Exchanger.AllToAll(tag, outgoing)
}

// runPairSlack is what a shipped pair may take beyond its PairBytes
// price without regrowing the buffer it is encoded into: the record's
// length prefix and a codec's framing byte. A codec that exceeds it
// costs a reallocation, nothing else.
const runPairSlack = 4

// mapReportCounters are the counters of the map report that heads a
// run payload, in wire order: map attempts and failures.
const mapReportCounters = 2

// parseRunHead decodes the map report at the head of a run payload, of
// a job with tasks mappers, into c and e, and returns the runs after
// it: none when the report carries an error, because a worker whose map
// phase failed ships no runs.
func parseRunHead(buf []byte, c []int64, e *taskError, tasks int) ([]byte, error) {
	rest, err := parseReport(buf, c, e, tasks)
	if err == nil && e.idx >= 0 && len(rest) > 0 {
		err = fmt.Errorf("mapreduce: dist frame: %d bytes after the report of a failed map phase", len(rest))
	}
	return rest, err
}

// distExchangeRuns is the first exchange, the network shuffle. Every
// payload starts with this worker's map report; unless its map phase
// failed, a payload to a peer goes on with each owned mapper's runs for
// the peer's reducers. The reports make the MapAttempts/MapFailures
// totals in stats global and surface the globally lowest-index map
// error, before any run is decoded. On success, runs[m][r] is populated
// for every locally-owned reducer column r exactly as an in-process run
// would have built it; remote mappers' rows are materialized so the
// shuffle can index them. Each payload to a peer is encoded into a frame
// from pool, which goes back once the exchange returns; the report to
// itself is too small to take one. stats.ShuffleNetworkBytes and
// ShuffleNetworkRuns are left at this worker's share, the bytes of runs
// and the non-empty runs it shipped, which the reduce barrier sums.
func distExchangeRuns[I any, K ReducerKey, V any, O any](j *Job[I, K, V, O], cfg *Config, stats *Stats, runs [][]run[V], mapErrs []error, pool *BufferPool) error {
	d := cfg.Dist
	W := d.NumWorkers
	nm := len(runs)
	// Mirror the in-process surface error exactly:
	// fmt.Errorf("%w (mapper %d)", err, m).
	locErr := firstError(mapErrs, func(m int, err error) string { return fmt.Sprintf("%s (mapper %d)", err, m) })
	c := [mapReportCounters]int64{stats.MapAttempts, stats.MapFailures}
	outgoing := make([][]byte, W)
	outgoing[d.Self] = appendReport(nil, c[:], locErr)
	shipRuns := locErr.idx < 0
	var rec []byte
	for u := 0; u < W; u++ {
		if u == d.Self {
			continue
		}
		// Sized before the first append: the report, then a run's priced
		// bytes plus runPairSlack per pair.
		size := reportLen(mapReportCounters, locErr)
		for m := d.Self; shipRuns && m < nm; m += W {
			for r := u; r < cfg.NumReducers; r += W {
				b := &runs[m][r]
				size += int(b.bytes) + b.n*runPairSlack + 4*binary.MaxVarintLen32
			}
		}
		buf := appendReport(getFrame(&pool.frames, size), c[:], locErr)
		head := len(buf)
		for m := d.Self; shipRuns && m < nm; m += W {
			for r := u; r < cfg.NumReducers; r += W {
				b := &runs[m][r]
				if b.n > 0 {
					stats.ShuffleNetworkRuns++
				}
				buf, rec = appendRun(buf, rec, m, K(r), b, j.EncodePair)
				// The shipped run's memory is dead locally: its reducer
				// runs elsewhere.
				b.recycle(pool)
			}
		}
		outgoing[u] = buf
		stats.ShuffleNetworkBytes += int64(len(buf) - head)
	}
	incoming, err := d.Exchanger.AllToAll("runs", outgoing)
	for u, buf := range outgoing {
		if u != d.Self {
			putBuf(&pool.frames, buf)
		}
	}
	if err != nil {
		return fmt.Errorf("mapreduce: job %q: run exchange: %w", cfg.Name, err)
	}
	var totals [mapReportCounters]int64
	globErr := taskError{idx: -1}
	for w, buf := range incoming {
		var e taskError
		// c, encoded already, takes each worker's counters in turn.
		if incoming[w], err = parseRunHead(buf, c[:], &e, nm); err != nil {
			return fmt.Errorf("mapreduce: job %q: run exchange: worker %d: %w", cfg.Name, w, err)
		}
		for i, v := range c {
			totals[i] += v
		}
		globErr.merge(e)
	}
	stats.MapAttempts, stats.MapFailures = totals[0], totals[1]
	if globErr.idx >= 0 {
		return errors.New(globErr.msg)
	}
	// Materialize every remote mapper's row — the shuffle indexes
	// runs[m][r] for all m, empty runs included.
	for m := 0; m < nm; m++ {
		if runs[m] == nil {
			runs[m] = make([]run[V], cfg.NumReducers)
		}
	}
	for w := 0; w < W; w++ {
		if w == d.Self {
			continue
		}
		if err := decodeRuns(incoming[w], d, w, runs, j.DecodePair, pool); err != nil {
			return fmt.Errorf("mapreduce: job %q: run exchange: worker %d: %w", cfg.Name, w, err)
		}
	}
	return nil
}

// appendRun frames mapper m's run for reducer key: m, the reducer, the
// run's priced bytes and its pair count, then one length-prefixed
// EncodePair record per pair (rec is the caller's encoding scratch).
func appendRun[K ReducerKey, V any](buf, rec []byte, m int, key K, b *run[V], encode func(K, V, []byte) []byte) ([]byte, []byte) {
	buf = appendUvarints(buf, uint64(m), uint64(key), uint64(b.bytes), uint64(b.n))
	for _, c := range b.chunks {
		for i := range c {
			rec = encode(key, c[i], rec[:0])
			buf = append(appendUvarints(buf, uint64(len(rec))), rec...)
		}
	}
	return buf, rec
}

// decodeRuns parses worker from's run-exchange payload to this worker
// into runs: one appendRun frame for every mapper from owns and every
// reducer this worker owns, in that order and nothing else. Values land
// in their run as they decode, so what a payload costs follows the
// pairs it holds, never a count it claims; a pair keyed to another
// reducer, like a run out of place, is an error.
func decodeRuns[K ReducerKey, V any](buf []byte, d *DistConfig, from int, runs [][]run[V], decode func([]byte) (K, V, error), pool *BufferPool) error {
	for m := from; m < len(runs); m += d.NumWorkers {
		for r := d.Self; r < len(runs[m]); r += d.NumWorkers {
			var hdr [4]uint64 // mapper, reducer, priced bytes, pairs
			for i := range hdr {
				var err error
				if hdr[i], buf, err = readUvarint(buf); err != nil {
					return err
				}
			}
			if hdr[0] != uint64(m) || hdr[1] != uint64(r) {
				return fmt.Errorf("mapreduce: dist frame: run of mapper %d reducer %d where mapper %d reducer %d's belongs", hdr[0], hdr[1], m, r)
			}
			if err := checkCount("pairs", hdr[3], len(buf)); err != nil {
				return err
			}
			b := &runs[m][r]
			b.bytes = int64(hdr[2])
			for i := uint64(0); i < hdr[3]; i++ {
				raw, rest, err := readBytes(buf)
				if err != nil {
					return err
				}
				buf = rest
				k, v, err := decode(raw)
				if err != nil {
					return err
				}
				if k != K(r) {
					return fmt.Errorf("mapreduce: dist frame: a pair keyed %v in reducer %d's run", k, r)
				}
				b.add(v, pool)
			}
		}
	}
	if len(buf) > 0 {
		return fmt.Errorf("mapreduce: dist frame: %d bytes after the last run", len(buf))
	}
	return nil
}

// reduceReportCounters are the counters of the reduce barrier's report,
// in wire order: reduce attempts and failures, the priced bytes
// shuffled to the worker's reducers, then the bytes and non-empty runs
// it shipped in the run exchange — the worker's share of each of these
// Stats.
const reduceReportCounters = 5

// ownedReducers is the number of reducers worker w of W owns among nr.
func ownedReducers(w, W, nr int) int {
	if w >= nr {
		return 0
	}
	return (nr-1-w)/W + 1
}

// reducerReport is one reducer's entry in its owner's reduce-barrier
// payload: the pairs shuffled to it and its outputs as length-prefixed
// EncodeOutput records.
type reducerReport struct {
	r     int
	pairs int64
	recs  []byte
}

// appendReduceReport encodes worker w's reduce-barrier payload into a
// frame from pool: its report, the count of reducers it owns, then one
// reducerReport per owned reducer r ≡ w (mod W), ascending, read from
// the per-reducer pairs and output runs.
func appendReduceReport[O any](pool *BufferPool, c [reduceReportCounters]int64, e taskError, w, W int, pairs []int64, outputs []run[O], encode func(O, []byte) []byte) []byte {
	// The payload's capacity is fixed before the first append: the
	// all-gathered outputs are the job's whole result, and growing a
	// buffer that large by doubling allocates it twice over. A run is
	// sized as its count times its first record: every output codec of
	// the spatial jobs is fixed-width per job (Job.EncodeOutput), and
	// append grows the frame for one that is not.
	var rec []byte
	size := reportLen(reduceReportCounters+1, e) // the report, then the owned count
	for r := w; r < len(outputs); r += W {
		size += 3 * binary.MaxVarintLen64
		if b := &outputs[r]; b.n > 0 {
			rec = encode(b.chunks[0][0], rec[:0])
			size += b.n * (uvarintLen(uint64(len(rec))) + len(rec))
		}
	}
	buf := appendReport(getFrame(&pool.frames, size), c[:], e)
	buf = appendUvarints(buf, uint64(ownedReducers(w, W, len(outputs))))
	for r := w; r < len(outputs); r += W {
		b := &outputs[r]
		buf = appendUvarints(buf, uint64(r), uint64(pairs[r]), uint64(b.n))
		for _, ch := range b.chunks {
			for i := range ch {
				rec = encode(ch[i], rec[:0])
				buf = append(appendUvarints(buf, uint64(len(rec))), rec...)
			}
		}
	}
	return buf
}

// parseReduceReport decodes worker w's whole reduce-barrier payload for
// a job of nr reducers, handing each reducer entry to entry. The entries
// must be exactly the reducers w owns, ascending, each once: an entry
// for another worker's reducer would overwrite that reducer's outputs
// and count its pairs twice.
func parseReduceReport(buf []byte, w, W, nr int, entry func(reducerReport) error) (c [reduceReportCounters]int64, e taskError, err error) {
	if buf, err = parseReport(buf, c[:], &e, nr); err != nil {
		return c, e, err
	}
	var v uint64
	if v, buf, err = readUvarint(buf); err != nil {
		return c, e, err
	}
	if owned := ownedReducers(w, W, nr); v != uint64(owned) {
		return c, e, fmt.Errorf("mapreduce: dist frame: %d reducers reported, worker %d owns %d", v, w, owned)
	}
	for r := w; r < nr; r += W {
		var hdr [3]uint64 // reducer, pairs, outputs
		for i := range hdr {
			if hdr[i], buf, err = readUvarint(buf); err != nil {
				return c, e, err
			}
		}
		if hdr[0] != uint64(r) {
			return c, e, fmt.Errorf("mapreduce: dist frame: reducer %d reported where worker %d's reducer %d belongs", hdr[0], w, r)
		}
		if err = checkCount("outputs", hdr[2], len(buf)); err != nil {
			return c, e, err
		}
		recs := buf
		for i := uint64(0); i < hdr[2]; i++ {
			if _, buf, err = readBytes(buf); err != nil {
				return c, e, err
			}
		}
		if err = entry(reducerReport{r: r, pairs: int64(hdr[1]), recs: recs[:len(recs)-len(buf)]}); err != nil {
			return c, e, err
		}
	}
	if len(buf) > 0 {
		err = fmt.Errorf("mapreduce: dist frame: %d bytes after the last reducer", len(buf))
	}
	return c, e, err
}

// distReduceBarrier is the second exchange: all-gather each worker's
// reduce report (its counters, among them its share of the priced
// bytes and the run exchange's network counters), each owned reducer's
// pair count, and the EncodeOutput-framed outputs. After it, outputs,
// stats.PairsPerReducer and the counters are globally complete and
// identical on every worker — a remote reducer's outputs decoded into
// its run, in chunks from pool, so the job assembles local and adopted
// runs alike; a reduce failure anywhere surfaces the same
// lowest-reducer error everywhere. The payload is encoded into a frame
// from pool, which goes back once every gathered payload is decoded: the
// exchange returns this worker's own payload as its own entry.
func distReduceBarrier[I any, K ReducerKey, V any, O any](j *Job[I, K, V, O], cfg *Config, stats *Stats, outputs []run[O], redErrs []error, pool *BufferPool) error {
	d := cfg.Dist
	locErr := firstError(redErrs, func(_ int, err error) string { return err.Error() })
	c := [reduceReportCounters]int64{stats.ReduceAttempts, stats.ReduceFailures, stats.IntermediateBytes, stats.ShuffleNetworkBytes, stats.ShuffleNetworkRuns}
	payload := appendReduceReport(pool, c, locErr, d.Self, d.NumWorkers, stats.PairsPerReducer, outputs, j.EncodeOutput)
	defer putBuf(&pool.frames, payload)

	incoming, err := distGather(d, "outputs", payload)
	if err != nil {
		return fmt.Errorf("mapreduce: job %q: reduce barrier: %w", cfg.Name, err)
	}
	var totals [reduceReportCounters]int64
	globErr := taskError{idx: -1}
	for w, buf := range incoming {
		// adopt takes a remote reducer's pair count and outputs; this
		// worker's own payload round-trips and holds nothing new. Outputs
		// land in the reducer's run as they decode, so what a payload
		// costs follows the records it holds, never a count it claims.
		adopt := func(rep reducerReport) error {
			if w == d.Self {
				return nil
			}
			stats.PairsPerReducer[rep.r] = rep.pairs
			b := &outputs[rep.r]
			for recs := rep.recs; len(recs) > 0; {
				raw, rest, _ := readBytes(recs) // framing checked by the parser
				recs = rest
				o, err := j.DecodeOutput(raw)
				if err != nil {
					return err
				}
				b.add(o, pool)
			}
			return nil
		}
		c, e, err := parseReduceReport(buf, w, d.NumWorkers, cfg.NumReducers, adopt)
		if err != nil {
			return fmt.Errorf("mapreduce: job %q: reduce barrier: worker %d: %w", cfg.Name, w, err)
		}
		for i, v := range c {
			totals[i] += v
		}
		globErr.merge(e)
	}
	stats.ReduceAttempts, stats.ReduceFailures = totals[0], totals[1]
	stats.IntermediateBytes = totals[2]
	stats.ShuffleNetworkBytes, stats.ShuffleNetworkRuns = totals[3], totals[4]
	if globErr.idx >= 0 {
		return errors.New(globErr.msg)
	}
	return nil
}
