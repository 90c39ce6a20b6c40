package mapreduce

// Distributed execution (SPMD): every worker of a cluster runs the same
// deterministic Job over the same input, but task *ownership* is
// partitioned — mapper m belongs to worker m mod W, reducer r to worker
// r mod W — and only three things ever cross the wire:
//
//  1. a map barrier gathering per-worker map accounting and errors, so
//     every worker agrees on the job's MapAttempts/MapFailures totals
//     and on whether (and how) the map phase failed;
//  2. the network shuffle: each worker ships the EncodePair-framed runs
//     destined for remotely-owned reducers and receives the
//     remotely-produced runs of its own reducers, so the shuffle sees
//     exactly the runs[m][r] matrix an in-process run builds;
//  3. a reduce barrier all-gathering the EncodeOutput-framed reducer
//     outputs plus per-reducer accounting, so every worker finishes the
//     job with the complete output slice and identical Stats.
//
// Because the shuffle delivers a reducer's values in (mapper index,
// emit order) no matter which worker produced the run, and outputs are
// assembled in reducer-index order, a distributed run is bit-identical
// to the in-process engine; the only new Stats are the
// ShuffleNetworkBytes/ShuffleNetworkRuns family counting what stage 2
// actually shipped. A DistConfig with NumWorkers == 1 degenerates to
// the in-process engine exactly (no exchange runs, network counters
// stay zero).

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

// ownsMapper reports whether this worker executes mapper m.
func (d *DistConfig) ownsMapper(m int) bool { return m%d.NumWorkers == d.Self }

// ownsReducer reports whether this worker executes reducer r.
func (d *DistConfig) ownsReducer(r int) bool { return r%d.NumWorkers == d.Self }

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

// appendUvarint appends v in varint encoding.
func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// readUvarint consumes one varint from buf. Only the shortest encoding
// of a value is accepted, the one appendUvarint writes, so a frame that
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

// uvarintLen is the number of bytes appendUvarint writes for v.
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
// wire. The barrier returns the globally lowest index so every worker
// surfaces the same error the in-process engine would (it reports the
// lowest-index failed task).
type taskError struct {
	idx int
	msg string
}

// merge keeps the lower-index error.
func (e *taskError) merge(idx int, msg string) {
	if idx < 0 {
		return
	}
	if e.idx < 0 || idx < e.idx {
		e.idx, e.msg = idx, msg
	}
}

func (e *taskError) append(buf []byte) []byte {
	buf = appendUvarint(buf, uint64(int64(e.idx)+1)) // -1 (none) encodes as 0
	buf = appendUvarint(buf, uint64(len(e.msg)))
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

// distGather all-gathers one payload: every worker receives every
// worker's payload, indexed by worker.
func distGather(d *DistConfig, tag string, payload []byte) ([][]byte, error) {
	outgoing := make([][]byte, d.NumWorkers)
	for w := range outgoing {
		outgoing[w] = payload
	}
	return d.Exchanger.AllToAll(tag, outgoing)
}

// mapBarrierCounters are the per-worker map-phase contributions summed
// by the barrier, in wire order: map attempts and failures.
const mapBarrierCounters = 2

// appendMapReport encodes one worker's map-barrier payload: its
// counters, then its lowest-index map error.
func appendMapReport(buf []byte, c [mapBarrierCounters]int64, e taskError) []byte {
	for _, v := range c {
		buf = appendUvarint(buf, uint64(v))
	}
	return e.append(buf)
}

// parseMapReport decodes one worker's whole map-barrier payload for a
// job of tasks mappers.
func parseMapReport(buf []byte, tasks int) (c [mapBarrierCounters]int64, e taskError, err error) {
	for i := range c {
		var v uint64
		if v, buf, err = readUvarint(buf); err != nil {
			return c, e, err
		}
		c[i] = int64(v)
	}
	if buf, err = e.parse(buf, tasks); err != nil {
		return c, e, err
	}
	if len(buf) > 0 {
		err = fmt.Errorf("mapreduce: dist frame: %d bytes after the map report", len(buf))
	}
	return c, e, err
}

// distMapBarrier is exchange stage 1: gather every worker's map-phase
// accounting (attempt/failure counters over the mappers it owns) and
// error state, overwrite the local partial sums in stats with the
// global totals, and surface the globally lowest-index map error (or
// nil).
func distMapBarrier(d *DistConfig, stats *Stats, mapErrs []error) error {
	locErr := taskError{idx: -1}
	for m, err := range mapErrs {
		if err != nil {
			// Mirror the in-process surface error exactly:
			// fmt.Errorf("%w (mapper %d)", err, m).
			locErr.merge(m, fmt.Sprintf("%s (mapper %d)", err.Error(), m))
			break // mapErrs is index-ordered; the first is the lowest
		}
	}
	payload := appendMapReport(nil, [mapBarrierCounters]int64{stats.MapAttempts, stats.MapFailures}, locErr)

	incoming, err := distGather(d, "map-stats", payload)
	if err != nil {
		return fmt.Errorf("mapreduce: job %q: map barrier: %w", stats.Job, err)
	}
	var totals [mapBarrierCounters]int64
	globErr := taskError{idx: -1}
	for w, buf := range incoming {
		c, e, err := parseMapReport(buf, len(mapErrs))
		if err != nil {
			return fmt.Errorf("mapreduce: job %q: map barrier: worker %d: %w", stats.Job, w, err)
		}
		for i, v := range c {
			totals[i] += v
		}
		globErr.merge(e.idx, e.msg)
	}
	stats.MapAttempts = totals[0]
	stats.MapFailures = totals[1]
	if globErr.idx >= 0 {
		return errors.New(globErr.msg)
	}
	return nil
}

// runPairSlack is what a shipped pair may take beyond its PairBytes
// price without regrowing the buffer it is encoded into: the record's
// length prefix and a codec's framing byte. A codec that exceeds it
// costs a reallocation, nothing else.
const runPairSlack = 4

// distExchangeRuns is exchange stage 2, the network shuffle: ship each
// owned mapper's runs destined for remotely-owned reducers and receive
// the remote runs of the reducers this worker owns. On return,
// runs[m][r] is populated for every locally-owned reducer column r
// exactly as an in-process run would have built it; remote mappers'
// rows are materialized so the shuffle can index them. Each payload is
// encoded into a frame from pool, which goes back once the exchange
// returns. Returns the bytes and non-empty runs shipped to remote
// workers.
func distExchangeRuns[I any, K ReducerKey, V any, O any](j *Job[I, K, V, O], cfg *Config, runs [][]run[V], nm int, pool *BufferPool) (int64, int64, error) {
	d := cfg.Dist
	W := d.NumWorkers
	outgoing := make([][]byte, W)
	var sentBytes, sentRuns int64
	var rec []byte
	for u := 0; u < W; u++ {
		if u == d.Self {
			continue
		}
		// Sized before the first append: a run's priced bytes plus
		// runPairSlack per pair.
		size := 0
		for m := d.Self; m < nm; m += W {
			for r := u; r < cfg.NumReducers; r += W {
				b := &runs[m][r]
				size += int(b.bytes) + b.n*runPairSlack + 4*binary.MaxVarintLen32
			}
		}
		buf := getFrame(&pool.frames, size)
		for m := d.Self; m < nm; m += W {
			for r := u; r < cfg.NumReducers; r += W {
				b := &runs[m][r]
				if b.n > 0 {
					sentRuns++
				}
				buf, rec = appendRun(buf, rec, m, K(r), b, j.EncodePair)
				// The shipped run's memory is dead locally: its reducer
				// runs elsewhere.
				b.recycle(pool)
			}
		}
		outgoing[u] = buf
		sentBytes += int64(len(buf))
	}
	incoming, err := d.Exchanger.AllToAll("runs", outgoing)
	for _, buf := range outgoing {
		putBuf(&pool.frames, buf)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("mapreduce: job %q: run exchange: %w", cfg.Name, err)
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
			return 0, 0, fmt.Errorf("mapreduce: job %q: run exchange: worker %d: %w", cfg.Name, w, err)
		}
	}
	return sentBytes, sentRuns, nil
}

// appendRun frames mapper m's run for reducer key: m, the reducer, the
// run's priced bytes and its pair count, then one length-prefixed
// EncodePair record per pair (rec is the caller's encoding scratch).
func appendRun[K ReducerKey, V any](buf, rec []byte, m int, key K, b *run[V], encode func(K, V, []byte) []byte) ([]byte, []byte) {
	buf = appendUvarint(buf, uint64(m))
	buf = appendUvarint(buf, uint64(key))
	buf = appendUvarint(buf, uint64(b.bytes))
	buf = appendUvarint(buf, uint64(b.n))
	for _, c := range b.chunks {
		for i := range c {
			rec = encode(key, c[i], rec[:0])
			buf = append(appendUvarint(buf, uint64(len(rec))), rec...)
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

// reduceBarrierCounters are the per-worker reduce-phase contributions
// summed by the reduce barrier, in wire order: reduce attempts and
// failures, then the bytes and non-empty runs its run exchange shipped.
const reduceBarrierCounters = 4

// ownedReducers is the number of reducers worker w of W owns among nr.
func ownedReducers(w, W, nr int) int {
	if w >= nr {
		return 0
	}
	return (nr-1-w)/W + 1
}

// reducerReport is one reducer's entry in its owner's reduce-barrier
// payload: the pairs shuffled to it, their priced bytes, its keys, and
// its outputs as length-prefixed EncodeOutput records.
type reducerReport struct {
	r                  int
	pairs, bytes, keys int64
	recs               []byte
}

// appendReduceReport encodes worker w's reduce-barrier payload into a
// frame from pool: its counters and lowest-index reduce error, the count
// of reducers it owns, then one reducerReport per owned reducer
// r ≡ w (mod W), ascending, read from the per-reducer pairs, bytes and
// keys slices and output runs.
func appendReduceReport[O any](pool *BufferPool, c [reduceBarrierCounters]int64, e taskError, w, W int, pairs, bytes, keys []int64, outputs []run[O], encode func(O, []byte) []byte) []byte {
	// The payload's capacity is fixed before the first append: the
	// all-gathered outputs are the job's whole result, and growing a
	// buffer that large by doubling allocates it twice over. A run is
	// sized as its count times its first record: every output codec of
	// the spatial jobs is fixed-width per job (Job.EncodeOutput), and
	// append grows the frame for one that is not.
	var rec []byte
	size := (reduceBarrierCounters+3)*binary.MaxVarintLen64 + len(e.msg)
	for r := w; r < len(outputs); r += W {
		size += 5 * binary.MaxVarintLen64
		if b := &outputs[r]; b.n > 0 {
			rec = encode(b.chunks[0][0], rec[:0])
			size += b.n * (uvarintLen(uint64(len(rec))) + len(rec))
		}
	}
	buf := getFrame(&pool.frames, size)
	for _, v := range c {
		buf = appendUvarint(buf, uint64(v))
	}
	buf = e.append(buf)
	buf = appendUvarint(buf, uint64(ownedReducers(w, W, len(outputs))))
	for r := w; r < len(outputs); r += W {
		b := &outputs[r]
		buf = appendUvarint(buf, uint64(r))
		buf = appendUvarint(buf, uint64(pairs[r]))
		buf = appendUvarint(buf, uint64(bytes[r]))
		buf = appendUvarint(buf, uint64(keys[r]))
		buf = appendUvarint(buf, uint64(b.n))
		for _, ch := range b.chunks {
			for i := range ch {
				rec = encode(ch[i], rec[:0])
				buf = append(appendUvarint(buf, uint64(len(rec))), rec...)
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
func parseReduceReport(buf []byte, w, W, nr int, entry func(reducerReport) error) (c [reduceBarrierCounters]int64, e taskError, err error) {
	var v uint64
	for i := range c {
		if v, buf, err = readUvarint(buf); err != nil {
			return c, e, err
		}
		c[i] = int64(v)
	}
	if buf, err = e.parse(buf, nr); err != nil {
		return c, e, err
	}
	if v, buf, err = readUvarint(buf); err != nil {
		return c, e, err
	}
	if owned := ownedReducers(w, W, nr); v != uint64(owned) {
		return c, e, fmt.Errorf("mapreduce: dist frame: %d reducers reported, worker %d owns %d", v, w, owned)
	}
	for r := w; r < nr; r += W {
		var hdr [5]uint64 // reducer, pairs, priced bytes, keys, outputs
		for i := range hdr {
			if hdr[i], buf, err = readUvarint(buf); err != nil {
				return c, e, err
			}
		}
		if hdr[0] != uint64(r) {
			return c, e, fmt.Errorf("mapreduce: dist frame: reducer %d reported where worker %d's reducer %d belongs", hdr[0], w, r)
		}
		if err = checkCount("outputs", hdr[4], len(buf)); err != nil {
			return c, e, err
		}
		recs := buf
		for i := uint64(0); i < hdr[4]; i++ {
			if _, buf, err = readBytes(buf); err != nil {
				return c, e, err
			}
		}
		rep := reducerReport{r: r, pairs: int64(hdr[1]), bytes: int64(hdr[2]), keys: int64(hdr[3]), recs: recs[:len(recs)-len(buf)]}
		if err = entry(rep); err != nil {
			return c, e, err
		}
	}
	if len(buf) > 0 {
		err = fmt.Errorf("mapreduce: dist frame: %d bytes after the last reducer", len(buf))
	}
	return c, e, err
}

// distReduceBarrier is exchange stage 3: all-gather each worker's
// reduce accounting, per-owned-reducer shuffle/keys/bytes figures, the
// EncodeOutput-framed outputs, and its stage-2 network counters. After
// it, outputs/keyCounts/bytesPerReducer/stats are globally complete and
// identical on every worker — a remote reducer's outputs decoded into
// its run, in chunks from pool, so the job assembles local and adopted
// runs alike; a reduce failure anywhere surfaces the same
// lowest-reducer error everywhere. The payload is encoded into a frame
// from pool, which goes back once every gathered payload is decoded: the
// exchange returns this worker's own payload as its own entry.
func distReduceBarrier[I any, K ReducerKey, V any, O any](j *Job[I, K, V, O], cfg *Config, stats *Stats, outputs []run[O], keyCounts []int64, bytesPerReducer []int64, redErrs []error, netBytes, netRuns int64, pool *BufferPool) error {
	d := cfg.Dist
	locErr := taskError{idx: -1}
	for r, err := range redErrs {
		if err != nil {
			locErr.merge(r, err.Error())
			break
		}
	}
	payload := appendReduceReport(pool, [reduceBarrierCounters]int64{stats.ReduceAttempts, stats.ReduceFailures, netBytes, netRuns},
		locErr, d.Self, d.NumWorkers, stats.PairsPerReducer, bytesPerReducer, keyCounts, outputs, j.EncodeOutput)
	defer putBuf(&pool.frames, payload)

	incoming, err := distGather(d, "outputs", payload)
	if err != nil {
		return fmt.Errorf("mapreduce: job %q: reduce barrier: %w", cfg.Name, err)
	}
	var totals [reduceBarrierCounters]int64
	globErr := taskError{idx: -1}
	for w, buf := range incoming {
		// adopt takes a remote reducer's figures and outputs; this
		// worker's own payload round-trips and holds nothing new. Outputs
		// land in the reducer's run as they decode, so what a payload
		// costs follows the records it holds, never a count it claims.
		adopt := func(rep reducerReport) error {
			if w == d.Self {
				return nil
			}
			stats.PairsPerReducer[rep.r] = rep.pairs
			stats.IntermediatePairs += rep.pairs
			stats.IntermediateBytes += rep.bytes
			keyCounts[rep.r] = rep.keys
			bytesPerReducer[rep.r] = rep.bytes
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
		globErr.merge(e.idx, e.msg)
	}
	stats.ReduceAttempts = totals[0]
	stats.ReduceFailures = totals[1]
	stats.ShuffleNetworkBytes = totals[2]
	stats.ShuffleNetworkRuns = totals[3]
	if globErr.idx >= 0 {
		return errors.New(globErr.msg)
	}
	return nil
}
