package mapreduce

// Distributed execution (SPMD): every worker of a cluster runs the same
// deterministic Job over the same input, but task *ownership* is
// partitioned — of nm mappers, mapper m belongs to worker ⌊m·W/nm⌋, so
// each worker runs a contiguous range of them (a block of neighbouring
// grid columns where the caller's splits follow the grid, RunBlocks),
// and each reducer to the worker the job's placement table names — and
// a job makes three exchanges:
//
//  1. the map report, all-gathered: each worker's map attempts, map
//     failures and lowest-index map error, then, unless its map phase
//     failed, one vector per mapper it owns of each of that mapper's
//     runs' priced bytes (its pair count when the job prices none). So
//     every worker agrees on the job's MapAttempts/MapFailures totals,
//     on whether (and how) the map phase failed, and on the placement
//     table (placeReducers), which it computes from the same vectors;
//  2. the network shuffle: a worker's payload to a peer is the runs of
//     its mappers for the reducers the table gives the peer, so the
//     shuffle sees exactly the runs[m][r] matrix an in-process run
//     builds;
//  3. a reduce barrier all-gathering the reducer outputs, each
//     reducer's pair count and the reduce accounting, so every worker
//     finishes the job with the complete output slice and identical
//     Stats.
//
// The last two frame their records alike: a header — a run's mapper,
// reducer, priced bytes and count; a reducer entry's reducer, pairs and
// count — then count records of the job's codec (Job.Values,
// Job.Outputs) back to back. A pair ships as its value alone, since the
// header names its reducer.
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
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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

// mapperOwner is the worker that runs mapper m of a job of nm mappers:
// each worker runs a contiguous range of them, mapper m on worker
// ⌊m·W/nm⌋, so where a caller's splits follow the grid's columns a
// worker maps a block of neighbouring columns. Reducers go where the
// job's placement table puts them.
func (d *DistConfig) mapperOwner(m, nm int) int { return m * d.NumWorkers / nm }

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
// its counters, then its lowest-index failed task. Two exchanges of a
// job carry one: the map report heads its own, the reduce report the
// reduce barrier's payload.
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

// ownedMappers is the range [lo, hi) of the mappers worker w of W owns
// among nm: those m with ⌊m·W/nm⌋ = w (mapperOwner).
func ownedMappers(w, W, nm int) (lo, hi int) {
	return (w*nm + W - 1) / W, ((w+1)*nm + W - 1) / W
}

// appendMapReport encodes worker w's map report: its counters c and
// lowest-index map error e, then — unless e names a failed mapper, whose
// report is the report alone — the count of mappers w owns and, for each
// of them ascending, its nr weights, weights[m*nr+r] for reducer r.
func appendMapReport(buf []byte, c []int64, e taskError, w, W, nr int, weights []int64) []byte {
	buf = appendReport(buf, c, e)
	if e.idx >= 0 {
		return buf
	}
	lo, hi := ownedMappers(w, W, len(weights)/nr)
	buf = appendUvarints(buf, uint64(hi-lo))
	for m := lo; m < hi; m++ {
		for _, v := range weights[m*nr : (m+1)*nr] {
			buf = appendUvarints(buf, uint64(v))
		}
	}
	return buf
}

// parseMapReport decodes the map report at the head of worker w's
// payload, of a job of len(weights)/nr mappers and nr reducers, into c,
// e and w's mappers' rows of weights, and returns the bytes after it.
// A report carrying an error ends there; any other holds exactly one
// vector for each mapper w owns.
func parseMapReport(buf []byte, c []int64, e *taskError, w, W, nr int, weights []int64) ([]byte, error) {
	nm := len(weights) / nr
	buf, err := parseReport(buf, c, e, nm)
	if err != nil || e.idx >= 0 {
		return buf, err
	}
	k, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	// Every weight takes at least a byte.
	if k > uint64(len(buf)/nr) {
		return nil, fmt.Errorf("mapreduce: dist frame: %d mapper vectors of %d reducers declared with %d bytes left", k, nr, len(buf))
	}
	lo, hi := ownedMappers(w, W, nm)
	if k != uint64(hi-lo) {
		return nil, fmt.Errorf("mapreduce: dist frame: %d mapper vectors reported, worker %d owns %d mappers", k, w, hi-lo)
	}
	for m := lo; m < hi; m++ {
		for r := range nr {
			var v uint64
			if v, buf, err = readUvarint(buf); err != nil {
				return nil, err
			}
			weights[m*nr+r] = int64(v)
		}
	}
	return buf, nil
}

// placeReducers is a job's placement table: entry r is the worker that
// runs reducer r, given load[w][r], the bytes worker w's mappers emitted
// for it. A reducer should run where most of its bytes already are, so
// each goes to its best worker — the most bytes; among equals, the one
// holding the fewest bytes so far, then the lower index — unless that
// would lift the worker's total above ⌈total/W⌉ plus the largest
// reducer's bytes; then it goes to the best worker that still has room.
// A reducer whose bytes are split evenly ships the same wherever it
// runs, so equals take turns instead of filling the lower worker. Reducers are placed in descending order of the margin
// between their best and second-best worker's bytes, the lower index
// first on a tie, so those with the most to lose from moving choose
// first. A reducer with no bytes stays at r mod W. Every worker computes
// the same table from the same map reports.
func placeReducers(load [][]int64) []int {
	W, nr := len(load), len(load[0])
	owner := make([]int, nr)
	sum := make([]int64, nr)
	margin := make([]int64, nr)
	order := make([]int, 0, nr)
	var total, largest int64
	for r := range owner {
		owner[r] = r % W
		var first, second int64
		for w := range load {
			v := load[w][r]
			sum[r] += v
			if v > first {
				first, second = v, first
			} else if v > second {
				second = v
			}
		}
		if sum[r] != 0 {
			margin[r] = first - second
			order = append(order, r)
		}
		total += sum[r]
		largest = max(largest, sum[r])
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(margin[b], margin[a]) })
	room := (total+int64(W)-1)/int64(W) + largest
	held := make([]int64, W)
	for _, r := range order {
		// The least-held worker has room: before r it holds at most
		// (total − sum[r])/W.
		best := -1
		for w := range load {
			if held[w]+sum[r] > room {
				continue
			}
			if best < 0 || load[w][r] > load[best][r] || load[w][r] == load[best][r] && held[w] < held[best] {
				best = w
			}
		}
		if best < 0 {
			// Only a peer's claims that overflow the sums get here.
			best = owner[r]
		}
		owner[r] = best
		held[best] += sum[r]
	}
	return owner
}

// distMapReport is the first exchange: it all-gathers every worker's
// map report and returns the job's placement table and every mapper's
// weights, weights[m*nr+r] for reducer r. The reports make the
// MapAttempts/MapFailures totals in stats global and surface the
// globally lowest-index map error, which ends the job here; otherwise
// each worker's weights — a run's priced bytes, or its pairs when the
// job prices none — place the reducers, and price the runs the next
// exchange brings in.
func distMapReport[I any, K ReducerKey, V any, O any](j *Job[I, K, V, O], cfg *Config, stats *Stats, runs [][]run[V], mapErrs []error) ([]int, []int64, error) {
	d := cfg.Dist
	W, nm, nr := d.NumWorkers, len(runs), cfg.NumReducers
	// Mirror the in-process surface error exactly:
	// fmt.Errorf("%w (mapper %d)", err, m).
	locErr := firstError(mapErrs, func(m int, err error) string { return fmt.Sprintf("%s (mapper %d)", err, m) })
	c := [mapReportCounters]int64{stats.MapAttempts, stats.MapFailures}
	weights := make([]int64, nm*nr)
	lo, hi := ownedMappers(d.Self, W, nm)
	for m := lo; locErr.idx < 0 && m < hi; m++ {
		for r := range runs[m] {
			b := &runs[m][r]
			weights[m*nr+r] = int64(b.n)
			if j.PairBytes != nil {
				weights[m*nr+r] = b.bytes
			}
		}
	}
	// A few bytes a reducer per mapper: too small to take a frame.
	payload := appendMapReport(nil, c[:], locErr, d.Self, W, nr, weights)
	incoming, err := distGather(d, "map-report", payload)
	if err != nil {
		return nil, nil, fmt.Errorf("mapreduce: job %q: map report: %w", cfg.Name, err)
	}
	defer d.Exchanger.Recycle()
	totals, globErr := c, locErr
	for w, buf := range incoming {
		if w == d.Self {
			continue
		}
		var c [mapReportCounters]int64
		var e taskError
		rest, err := parseMapReport(buf, c[:], &e, w, W, nr, weights)
		if err == nil && len(rest) > 0 {
			err = fmt.Errorf("mapreduce: dist frame: %d bytes after the map report", len(rest))
		}
		if err != nil {
			return nil, nil, fmt.Errorf("mapreduce: job %q: map report: worker %d: %w", cfg.Name, w, err)
		}
		for i, v := range c {
			totals[i] += v
		}
		globErr.merge(e)
	}
	stats.MapAttempts, stats.MapFailures = totals[0], totals[1]
	if globErr.idx >= 0 {
		return nil, nil, errors.New(globErr.msg)
	}
	return placement(weights, W, nr), weights, nil
}

// placement is the placement table of a job of W workers and nr
// reducers whose mapper m emitted weights[m*nr+r] for reducer r: each
// worker's mappers' weights summed, then placed by placeReducers.
func placement(weights []int64, W, nr int) []int {
	load := make([][]int64, W)
	for w := range load {
		load[w] = make([]int64, nr)
	}
	nm := len(weights) / nr
	for m := 0; m < nm; m++ {
		for r, v := range weights[m*nr : (m+1)*nr] {
			load[m*W/nm][r] += v
		}
	}
	return placeReducers(load)
}

// distExchangeRuns is the second exchange, the network shuffle: the
// payload to a peer is each owned mapper's runs for the reducers owner,
// the job's placement table, gives the peer. On success, runs[m][r] is
// populated for every locally-owned reducer column r exactly as an
// in-process run would have built it, its priced bytes taken from
// weights, the map reports' (distMapReport); remote mappers' rows are
// materialized so the shuffle can index them. Each payload to a peer is
// encoded into a frame from pool, which goes back once the exchange
// returns. stats.ShuffleNetworkBytes and ShuffleNetworkRuns are left at
// this worker's share, the bytes of runs and the non-empty runs it
// shipped, which the reduce barrier sums.
func distExchangeRuns[I any, K ReducerKey, V any, O any](j *Job[I, K, V, O], cfg *Config, stats *Stats, runs [][]run[V], owner []int, weights []int64, pool *BufferPool) error {
	d := cfg.Dist
	W := d.NumWorkers
	lo, hi := ownedMappers(d.Self, W, len(runs))
	outgoing := make([][]byte, W)
	for u := 0; u < W; u++ {
		if u == d.Self {
			continue
		}
		// Sized before the first append.
		size := 0
		for m := lo; m < hi; m++ {
			for r, o := range owner {
				if o == u {
					size += runLen(m, r, &runs[m][r], &j.Values)
				}
			}
		}
		buf := pool.getFrame(size)
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
		stats.ShuffleNetworkBytes += int64(len(buf))
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
	// Materialize every remote mapper's row — the shuffle indexes
	// runs[m][r] for all m, empty runs included.
	for m := range runs {
		if runs[m] == nil {
			runs[m] = getRuns[V](pool, cfg.NumReducers)
		}
	}
	for w := 0; w < W; w++ {
		if w == d.Self {
			continue
		}
		if err := decodeRuns(incoming[w], d, w, owner, weights, j.PairBytes != nil, runs, &j.Values, pool); err != nil {
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
// count, then its values' records. Its priced bytes are not repeated:
// the map report gave every worker them.
func appendRun[V any](buf []byte, m, r int, b *run[V], codec *Codec[V]) []byte {
	buf = appendUvarints(buf, uint64(m), uint64(r), uint64(b.n))
	return appendRecords(buf, b, codec)
}

// RunCountError reports a shipped run whose pair count is not the one
// its mapper's map report gave, in a job that prices no bytes, whose
// reports' weights are pair counts.
type RunCountError struct {
	Mapper, Reducer int
	Pairs, Reported uint64
}

func (e *RunCountError) Error() string {
	return fmt.Sprintf("mapreduce: dist frame: run of mapper %d reducer %d holds %d pairs, its map report %d", e.Mapper, e.Reducer, e.Pairs, e.Reported)
}

// decodeRuns parses worker from's run-exchange payload to this worker
// into runs: one appendRun frame for every mapper from owns and every
// reducer owner gives this worker, in that order and nothing else. A
// run out of place is an error. weights are the map reports'
// (distMapReport): a run's priced bytes where priced, else its pair
// count, which the run must hold.
func decodeRuns[V any](buf []byte, d *DistConfig, from int, owner []int, weights []int64, priced bool, runs [][]run[V], codec *Codec[V], pool *BufferPool) error {
	nr := len(owner)
	lo, hi := ownedMappers(from, d.NumWorkers, len(runs))
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
			weight := weights[m*nr+r]
			if !priced && hdr[2] != uint64(weight) {
				return &RunCountError{Mapper: m, Reducer: r, Pairs: hdr[2], Reported: uint64(weight)}
			}
			if err := checkCount("pairs", hdr[2], len(buf)); err != nil {
				return err
			}
			b := &runs[m][r]
			if priced {
				b.bytes = weight
			}
			var err error
			if buf, err = readRecords(buf, hdr[2], b, codec, pool); err != nil {
				return err
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

// ownedReducers is the number of reducers owner, a placement table,
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

// distReduceBarrier is the third exchange: all-gather each worker's
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
