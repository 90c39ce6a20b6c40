package mapreduce

// Distributed execution (SPMD): every worker of a cluster runs the same
// deterministic Job over the same input, but task *ownership* is
// partitioned — of nm mappers, mapper m belongs to worker ⌊m·W/nm⌋, so
// each worker runs a contiguous range of them (OwnedMappers), and each
// reducer to the worker the job's Cut names, a table every worker has
// before its map phase (RunBlocks: where the caller cuts splits along the
// grid's columns, a worker maps a block of neighbouring columns and owns
// their cells) — and a job makes two exchanges:
//
//  1. the network shuffle: a worker's payload to a peer is its map report
//     — map attempts, map failures and lowest-index map error — then,
//     unless its map phase failed, the runs of its mappers for the
//     reducers the table gives the peer, so the shuffle sees exactly the
//     runs[m][r] matrix an in-process run builds, and every worker agrees
//     on the job's MapAttempts/MapFailures totals and on whether (and
//     how) the map phase failed, which ends the job there;
//  2. a reduce barrier all-gathering the reducer outputs, each
//     reducer's pair count and the reduce accounting, so every worker
//     finishes the job with the complete output slice and identical
//     Stats.
//
// Both frame their records alike: a header — a run's mapper, reducer
// and count; a reducer entry's reducer, pairs and count — then count
// records of the job's codec (Job.Values, Job.Outputs) back to back. A
// pair ships as its value alone, since the header names its reducer, and
// its priced bytes are the receiver's to count (Job.PairBytes).
//
// Because the shuffle delivers a reducer's values in (mapper index,
// emit order) no matter which worker produced the run, and outputs are
// assembled in reducer-index order, a distributed run is bit-identical
// to the in-process engine wherever the table places a reducer; the
// only new Stats are the ShuffleNetworkBytes/ShuffleNetworkRuns family
// counting the runs the shuffle actually shipped, their headers and
// value records. A DistConfig with NumWorkers == 1 degenerates to the
// in-process engine exactly (no exchange runs, network counters stay
// zero).

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
	// decodes what a call returns, keeping no byte of it (a Codec's Read
	// copies), and then calls Recycle.
	AllToAll(tag string, outgoing [][]byte) ([][]byte, error)
	// Recycle reports that the engine has decoded what AllToAll returned,
	// so an implementation may reuse that memory from then on: for a
	// peer's next payload, which can arrive before the engine's next call.
	Recycle()
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
	// Pool is the buffer pool of the worker this config runs on, the one
	// its Exchanger reads peers' payloads into; a cluster worker sets
	// it. spatial.Execute runs every job of the execution on it, naming
	// it in each job's Config.Pool; the engine reads it itself only to
	// draw the job's output from it (Slabs). nil leaves the process pool
	// and a fresh output. A job whose output its caller hands back may
	// set it with NumWorkers 1, as C-Rep's mark round does in-process.
	Pool *BufferPool
}

// Slabs is the pool a job's output and an execution's result are drawn
// from (Slab): a worker's Pool, which takes its result back once sent,
// and nil — a fresh result, the caller's own — off a worker. d may be
// nil.
func (d *DistConfig) Slabs() *BufferPool {
	if d == nil {
		return nil
	}
	return d.Pool
}

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

// checkCount rejects a record count a payload cannot hold: every record
// takes at least one byte, so a claim beyond the bytes that remain is a
// lie.
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
// job carry one at the head of their payloads: the map report, the
// reduce report.
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

// mapReportCounters are the counters of the map report, in wire order:
// map attempts and failures.
const mapReportCounters = 2

// distExchangeRuns is the first exchange, the network shuffle. Its
// payload to a peer is this worker's map report, then — unless its map
// phase failed, whose report is the report alone — each owned mapper's
// runs for the reducers owner, the job's table, gives the peer. The
// reports make the MapAttempts/MapFailures totals in stats global and
// surface the globally lowest-index map error, which ends the job here.
// Otherwise runs[m][r] is populated for every locally-owned reducer
// column r exactly as an in-process run would have built it, each
// received run priced with Job.PairBytes as an in-process mapper prices
// it; remote mappers' rows are materialized so the shuffle can index
// them. Each payload to a peer is encoded into a frame from pool, which
// goes back once the exchange returns. stats.ShuffleNetworkBytes and
// ShuffleNetworkRuns are left at this worker's share, the bytes of runs
// (the reports not counted) and the non-empty runs it shipped, which the
// reduce barrier sums.
func distExchangeRuns[I any, K ReducerKey, V any, O any](j *Job[I, K, V, O], cfg *Config, stats *Stats, runs [][]run[V], mapErrs []error, owner []int, pool *BufferPool) error {
	d := cfg.Dist
	W, nm := d.NumWorkers, len(runs)
	// Mirror the in-process surface error exactly:
	// fmt.Errorf("%w (mapper %d)", err, m).
	locErr := firstError(mapErrs, func(m int, err error) string { return fmt.Sprintf("%s (mapper %d)", err, m) })
	c := [mapReportCounters]int64{stats.MapAttempts, stats.MapFailures}
	lo, hi := OwnedMappers(d.Self, W, nm)
	if locErr.idx >= 0 {
		hi = lo // a failed map phase ships its report alone
	}
	outgoing := make([][]byte, W)
	for u := 0; u < W; u++ {
		if u == d.Self {
			continue
		}
		// Sized before the first append.
		size := reportLen(mapReportCounters, locErr)
		for m := lo; m < hi; m++ {
			for r, o := range owner {
				if o == u {
					size += runLen(m, r, &runs[m][r], &j.Values)
				}
			}
		}
		buf := appendReport(pool.getFrame(size), c[:], locErr)
		head := len(buf)
		for m := lo; m < hi; m++ {
			for r, o := range owner {
				if o != u {
					continue
				}
				b := &runs[m][r]
				if b.n > 0 {
					stats.ShuffleNetworkRuns++
				}
				buf = appendRun(buf, m, r, b, &j.Values)
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
			pool.PutFrame(buf)
		}
	}
	if err != nil {
		return fmt.Errorf("mapreduce: job %q: run exchange: %w", cfg.Name, err)
	}
	defer d.Exchanger.Recycle()
	// Every report first: a failed map phase anywhere ends the job before
	// a run is decoded. runsOf[w] is worker w's payload after its report.
	totals, globErr := c, locErr
	runsOf := make([][]byte, W)
	for w, buf := range incoming {
		if w == d.Self {
			continue
		}
		var c [mapReportCounters]int64
		var e taskError
		rest, err := parseReport(buf, c[:], &e, nm)
		if err == nil && e.idx >= 0 && len(rest) > 0 {
			err = fmt.Errorf("mapreduce: dist frame: %d bytes after a failed map phase's report", len(rest))
		}
		if err != nil {
			return fmt.Errorf("mapreduce: job %q: run exchange: worker %d: %w", cfg.Name, w, err)
		}
		runsOf[w] = rest
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
	for m := range runs {
		if runs[m] == nil {
			runs[m] = getRuns[V](pool, cfg.NumReducers)
		}
	}
	var price func(b *run[V], r int)
	if j.PairBytes != nil {
		price = func(b *run[V], r int) { priceRun(b, K(r), j.PairBytes) }
	}
	for w := 0; w < W; w++ {
		if w == d.Self {
			continue
		}
		if err := decodeRuns(runsOf[w], d, w, owner, runs, &j.Values, price, pool); err != nil {
			return fmt.Errorf("mapreduce: job %q: run exchange: worker %d: %w", cfg.Name, w, err)
		}
	}
	return nil
}

// runLen is the number of bytes appendRun writes for mapper m's run b
// for reducer r.
func runLen[V any](m, r int, b *run[V], codec *Codec[V]) int {
	n := uvarintLen(uint64(m)) + uvarintLen(uint64(r)) + uvarintLen(uint64(b.n))
	return n + recordsLen(b, codec)
}

// recordsLen is the number of bytes b's records take.
func recordsLen[T any](b *run[T], codec *Codec[T]) int {
	n := 0
	for _, c := range b.chunks {
		for i := range c {
			n += codec.Size(c[i])
		}
	}
	return n
}

// appendRecords appends b's records back to back.
func appendRecords[T any](buf []byte, b *run[T], codec *Codec[T]) []byte {
	for _, c := range b.chunks {
		for i := range c {
			buf = codec.Append(buf, c[i])
		}
	}
	return buf
}

// readRecords decodes n records from the front of buf into b and
// returns the bytes after them. Each lands in b as it decodes, so what
// a payload costs follows the records it holds, never the count it
// claims.
func readRecords[T any](buf []byte, n uint64, b *run[T], codec *Codec[T], pool *BufferPool) ([]byte, error) {
	for i := uint64(0); i < n; i++ {
		v, rest, err := codec.read(buf)
		if err != nil {
			return nil, err
		}
		buf = rest
		b.add(v, pool)
	}
	return buf, nil
}

// appendRun frames mapper m's run b for reducer r: m, r and its pair
// count, then its values' records. Its priced bytes are not sent: the
// receiver prices the values it decodes.
func appendRun[V any](buf []byte, m, r int, b *run[V], codec *Codec[V]) []byte {
	buf = appendUvarints(buf, uint64(m), uint64(r), uint64(b.n))
	return appendRecords(buf, b, codec)
}

// decodeRuns parses the runs of worker from's run-exchange payload to
// this worker, the bytes after its map report, into runs: one appendRun
// frame for every mapper from owns and every reducer owner gives this
// worker, in that order and nothing else. A run out of place is an
// error. price, if set, prices each decoded run of reducer r.
func decodeRuns[V any](buf []byte, d *DistConfig, from int, owner []int, runs [][]run[V], codec *Codec[V], price func(b *run[V], r int), pool *BufferPool) error {
	lo, hi := OwnedMappers(from, d.NumWorkers, len(runs))
	for m := lo; m < hi; m++ {
		for r, o := range owner {
			if o != d.Self {
				continue
			}
			var hdr [3]uint64 // mapper, reducer, pairs
			for i := range hdr {
				var err error
				if hdr[i], buf, err = readUvarint(buf); err != nil {
					return err
				}
			}
			if hdr[0] != uint64(m) || hdr[1] != uint64(r) {
				return fmt.Errorf("mapreduce: dist frame: run of mapper %d reducer %d where mapper %d reducer %d's belongs", hdr[0], hdr[1], m, r)
			}
			if err := checkCount("pairs", hdr[2], len(buf)); err != nil {
				return err
			}
			var err error
			if buf, err = readRecords(buf, hdr[2], &runs[m][r], codec, pool); err != nil {
				return err
			}
			if price != nil {
				price(&runs[m][r], r)
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

// ownedReducers is the number of reducers owner, a job's owner table,
// gives worker w.
func ownedReducers(w int, owner []int) int {
	n := 0
	for _, o := range owner {
		if o == w {
			n++
		}
	}
	return n
}

// appendReduceReport encodes worker w's reduce-barrier payload into a
// frame from pool: its report, the count of reducers it owns under
// owner, then for each of them, ascending, an entry of r, the pairs
// shuffled to it and its output count, followed by its outputs'
// records.
func appendReduceReport[O any](pool *BufferPool, c [reduceReportCounters]int64, e taskError, w int, owner []int, pairs []int64, outputs []run[O], codec *Codec[O]) []byte {
	// The payload's capacity is fixed before the first append, at its
	// size: the gathered outputs are the job's whole result, doubling a
	// buffer that large allocates it twice over, and a frame asked for
	// beyond the payload's size may miss the one the peer's payload of
	// this exchange leaves.
	owned := ownedReducers(w, owner)
	size := reportLen(reduceReportCounters, e) + uvarintLen(uint64(owned))
	for r, o := range owner {
		if o != w {
			continue
		}
		b := &outputs[r]
		size += uvarintLen(uint64(r)) + uvarintLen(uint64(pairs[r])) + uvarintLen(uint64(b.n)) + recordsLen(b, codec)
	}
	buf := appendReport(pool.getFrame(size), c[:], e)
	buf = appendUvarints(buf, uint64(owned))
	for r, o := range owner {
		if o != w {
			continue
		}
		b := &outputs[r]
		buf = appendUvarints(buf, uint64(r), uint64(pairs[r]), uint64(b.n))
		buf = appendRecords(buf, b, codec)
	}
	return buf
}

// parseReduceReport decodes worker w's whole reduce-barrier payload for
// a job of len(outputs) reducers: each reducer entry's pair count into
// pairs, its outputs into its run of outputs. The entries must be
// exactly the reducers w owns under owner, ascending, each once: an
// entry for another worker's reducer would overwrite that reducer's
// outputs and count its pairs twice.
func parseReduceReport[O any](buf []byte, w int, owner []int, pairs []int64, outputs []run[O], codec *Codec[O], pool *BufferPool) (c [reduceReportCounters]int64, e taskError, err error) {
	nr := len(outputs)
	if buf, err = parseReport(buf, c[:], &e, nr); err != nil {
		return c, e, err
	}
	var v uint64
	if v, buf, err = readUvarint(buf); err != nil {
		return c, e, err
	}
	if owned := ownedReducers(w, owner); v != uint64(owned) {
		return c, e, fmt.Errorf("mapreduce: dist frame: %d reducers reported, worker %d owns %d", v, w, owned)
	}
	for r, o := range owner {
		if o != w {
			continue
		}
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
		pairs[r] = int64(hdr[1])
		if buf, err = readRecords(buf, hdr[2], &outputs[r], codec, pool); err != nil {
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
// pair count, and its outputs. After it, outputs,
// stats.PairsPerReducer and the counters are globally complete and
// identical on every worker — a remote reducer's outputs decoded into
// its run, in chunks from pool, so the job assembles local and adopted
// runs alike; a reduce failure anywhere surfaces the same
// lowest-reducer error everywhere. The payload is encoded into a frame
// from pool, which goes back once every gathered payload is decoded.
// The exchange returns this worker's own payload as its own entry,
// which holds nothing new and is not decoded.
func distReduceBarrier[I any, K ReducerKey, V any, O any](j *Job[I, K, V, O], cfg *Config, stats *Stats, outputs []run[O], redErrs []error, owner []int, pool *BufferPool) error {
	d := cfg.Dist
	locErr := firstError(redErrs, func(_ int, err error) string { return err.Error() })
	c := [reduceReportCounters]int64{stats.ReduceAttempts, stats.ReduceFailures, stats.IntermediateBytes, stats.ShuffleNetworkBytes, stats.ShuffleNetworkRuns}
	payload := appendReduceReport(pool, c, locErr, d.Self, owner, stats.PairsPerReducer, outputs, &j.Outputs)
	defer pool.PutFrame(payload)

	incoming, err := distGather(d, "outputs", payload)
	if err != nil {
		return fmt.Errorf("mapreduce: job %q: reduce barrier: %w", cfg.Name, err)
	}
	defer d.Exchanger.Recycle()
	totals, globErr := c, locErr
	for w, buf := range incoming {
		if w == d.Self {
			continue
		}
		c, e, err := parseReduceReport(buf, w, owner, stats.PairsPerReducer, outputs, &j.Outputs, pool)
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
