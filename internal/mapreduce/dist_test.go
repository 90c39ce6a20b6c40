package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// chanHub is an in-memory Exchanger fabric: chans[from][to] carries the
// framed payloads of one worker pair, so W goroutine workers can run
// the SPMD engine without a network. A payload is delivered after its
// sender's AllToAll returns, so the hub carries a copy of it: a fresh
// one, or, when pool is set, one in a frame from pool that the
// receiving exchanger puts back on Recycle, as the cluster's mesh does.
// tags[w] lists the tags of worker w's exchanges, in call order.
type chanHub struct {
	w     int
	chans [][]chan []byte
	pool  *BufferPool
	tags  [][]string
}

func newChanHub(w int) *chanHub {
	h := &chanHub{w: w, chans: make([][]chan []byte, w), tags: make([][]string, w)}
	for i := range h.chans {
		h.chans[i] = make([]chan []byte, w)
		for j := range h.chans[i] {
			h.chans[i][j] = make(chan []byte, 64)
		}
	}
	return h
}

func (h *chanHub) exchanger(self int) *chanExchanger { return &chanExchanger{h: h, self: self} }

// carry copies payload for delivery.
func (h *chanHub) carry(payload []byte) []byte {
	if h.pool == nil {
		return bytes.Clone(payload)
	}
	frame := h.pool.GetFrame(len(payload))
	if frame == nil {
		frame = make([]byte, len(payload), FrameCap(len(payload)))
	}
	copy(frame, payload)
	return frame
}

type chanExchanger struct {
	h    *chanHub
	self int
	lent [][]byte // the pooled payloads the last AllToAll returned
}

func (e *chanExchanger) AllToAll(tag string, outgoing [][]byte) ([][]byte, error) {
	if len(outgoing) != e.h.w {
		return nil, fmt.Errorf("AllToAll %s: %d payloads for %d workers", tag, len(outgoing), e.h.w)
	}
	e.h.tags[e.self] = append(e.h.tags[e.self], tag)
	for w := 0; w < e.h.w; w++ {
		if w != e.self {
			e.h.chans[e.self][w] <- e.h.carry(outgoing[w])
		}
	}
	in := make([][]byte, e.h.w)
	in[e.self] = outgoing[e.self]
	for w := 0; w < e.h.w; w++ {
		if w != e.self {
			in[w] = <-e.h.chans[w][e.self]
			if e.h.pool != nil {
				e.lent = append(e.lent, in[w])
			}
		}
	}
	return in, nil
}

// Recycle puts the payloads the last AllToAll returned back in the
// hub's pool, as the cluster's mesh does.
func (e *chanExchanger) Recycle() {
	for i, p := range e.lent {
		e.h.pool.PutFrame(p)
		e.lent[i] = nil
	}
	e.lent = e.lent[:0]
}

// distTestJob builds the reference job the distributed equivalence
// tests run: integer inputs fan out to two reducers each, reducers fold
// the values into order-sensitive strings, and the full pair/output
// codec is wired so the job can distribute.
func distTestJob(cfg Config) *Job[int, int, int, string] {
	nr := cfg.NumReducers
	return &Job[int, int, int, string]{
		Config: cfg,
		Map: func(in int, emit func(int, int)) error {
			emit(in%97%nr, in)
			emit(in%89%nr, in*3)
			return nil
		},
		Reduce: func(k int, vs []int, emit func(string)) error {
			var sb strings.Builder
			fmt.Fprintf(&sb, "%d:", k)
			for _, v := range vs {
				fmt.Fprintf(&sb, "%d,", v)
			}
			emit(sb.String())
			return nil
		},
		PairBytes: func(int, int) int { return 16 },
		Values:    uvarintCodec,
		Outputs:   stringCodec,
	}
}

// uvarintCodec ships an int as its shortest varint, so a record that
// decodes re-encodes to the same bytes.
var uvarintCodec = Codec[int]{
	Size:   func(v int) int { return uvarintLen(uint64(v)) },
	Append: func(buf []byte, v int) []byte { return binary.AppendUvarint(buf, uint64(v)) },
	Read: func(buf []byte) (int, []byte, error) {
		v, rest, err := readUvarint(buf)
		if err != nil {
			return 0, nil, fmt.Errorf("an int record: %w", err)
		}
		return int(v), rest, nil
	},
}

// stringCodec ships a string as its length, then its bytes.
var stringCodec = Codec[string]{
	Size:   func(s string) int { return uvarintLen(uint64(len(s))) + len(s) },
	Append: func(buf []byte, s string) []byte { return append(binary.AppendUvarint(buf, uint64(len(s))), s...) },
	Read: func(buf []byte) (string, []byte, error) {
		b, rest, err := readBytes(buf)
		if err != nil {
			return "", nil, fmt.Errorf("a string record: %w", err)
		}
		return string(b), rest, nil
	},
}

// runDistributed executes the job on W SPMD workers over a chanHub and
// returns each worker's result and the tags of its exchanges.
func runDistributed(t *testing.T, w int, input []int, mk func(self int) *Job[int, int, int, string]) ([][]string, []*Stats, []error, [][]string) {
	t.Helper()
	hub := newChanHub(w)
	outs := make([][]string, w)
	sts := make([]*Stats, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for self := 0; self < w; self++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			j := mk(self)
			j.Config.Dist = &DistConfig{NumWorkers: w, Self: self, Exchanger: hub.exchanger(self)}
			outs[self], sts[self], errs[self] = j.Run(input)
		}(self)
	}
	wg.Wait()
	return outs, sts, errs, hub.tags
}

// normalizeDistStats zeroes the fields that legitimately differ between
// an in-process run and a distributed one: wall clocks and the network
// shuffle family.
func normalizeDistStats(s *Stats) Stats {
	n := *s
	n.MapWall, n.ReduceWall, n.TotalWall = 0, 0, 0
	n.ShuffleNetworkBytes, n.ShuffleNetworkRuns = 0, 0
	return n
}

// TestDistBitIdenticalToInProcess: an SPMD group of W workers returns,
// on every worker, the output and Stats of the in-process engine, with
// the network bytes in their own Stats family.
func TestDistBitIdenticalToInProcess(t *testing.T) {
	input := make([]int, 1000)
	for i := range input {
		input[i] = i * 7
	}
	base := Config{Name: "dist-eq", NumReducers: 13, NumMappers: 8, Parallelism: 4}
	// Priced by value, so a receiver that prices what it decodes other
	// than its mapper would shows in IntermediateBytes.
	job := func() *Job[int, int, int, string] {
		j := distTestJob(base)
		j.PairBytes = func(k, v int) int { return 1 + k + v%7 }
		return j
	}

	want, wantSt, err := job().Run(input)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 3, 5} {
		outs, sts, errs, tags := runDistributed(t, w, input, func(int) *Job[int, int, int, string] {
			return job()
		})
		for self := 0; self < w; self++ {
			if errs[self] != nil {
				t.Fatalf("W=%d worker %d: %v", w, self, errs[self])
			}
			if !reflect.DeepEqual(outs[self], want) {
				t.Errorf("W=%d worker %d: outputs diverge from in-process", w, self)
			}
			got := normalizeDistStats(sts[self])
			if !reflect.DeepEqual(got, normalizeDistStats(wantSt)) {
				t.Errorf("W=%d worker %d: stats diverge:\n got %+v\nwant %+v", w, self, got, normalizeDistStats(wantSt))
			}
			if w > 1 && sts[self].ShuffleNetworkBytes <= 0 {
				t.Errorf("W=%d worker %d: no network bytes recorded", w, self)
			}
			if w == 1 && sts[self].ShuffleNetworkBytes != 0 {
				t.Errorf("W=1: network bytes %d on the degenerate case", sts[self].ShuffleNetworkBytes)
			}
			if sts[self].ShuffleNetworkBytes != sts[0].ShuffleNetworkBytes {
				t.Errorf("W=%d: workers disagree on network bytes", w)
			}
			if want := []string{"runs", "outputs"}; w > 1 && !slices.Equal(tags[self], want) {
				t.Errorf("W=%d worker %d: exchanges %q, want %q", w, self, tags[self], want)
			}
		}
	}
}

// recycleCheck counts the exchanges whose payloads the engine did not
// hand back (Exchanger.Recycle) before its next exchange.
type recycleCheck struct {
	Exchanger
	held   bool // the last AllToAll's payloads are not recycled yet
	missed int
}

func (c *recycleCheck) AllToAll(tag string, outgoing [][]byte) ([][]byte, error) {
	if c.held {
		c.missed++
	}
	in, err := c.Exchanger.AllToAll(tag, outgoing)
	c.held = err == nil
	return in, err
}

func (c *recycleCheck) Recycle() {
	c.held = false
	c.Exchanger.Recycle()
}

// TestDistRecyclesEachExchange: the engine hands back each exchange's
// payloads once it has decoded them, before its next exchange and
// before the job returns, so a peer's next payload, arriving early, can
// be read into the same frame.
func TestDistRecyclesEachExchange(t *testing.T) {
	input := make([]int, 1000)
	for i := range input {
		input[i] = i * 7
	}
	hub := newChanHub(2)
	hub.pool = NewBufferPool()
	checks := []*recycleCheck{{Exchanger: hub.exchanger(0)}, {Exchanger: hub.exchanger(1)}}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for self, c := range checks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := distTestJob(Config{Name: "recycle", NumReducers: 13, NumMappers: 8, Pool: hub.pool})
			j.Config.Dist = &DistConfig{NumWorkers: 2, Self: self, Exchanger: c}
			_, _, errs[self] = j.Run(input)
		}()
	}
	wg.Wait()
	for self, c := range checks {
		if errs[self] != nil {
			t.Fatalf("worker %d: %v", self, errs[self])
		}
		if c.missed > 0 || c.held {
			t.Errorf("worker %d: %d exchanges not recycled before the next, the last held at return: %v", self, c.missed, c.held)
		}
	}
}

func TestDistFaultInjectionEquivalence(t *testing.T) {
	input := make([]int, 300)
	for i := range input {
		input[i] = i * 5
	}
	mkCfg := func() Config {
		return Config{Name: "dist-fault", NumReducers: 9, NumMappers: 7, Parallelism: 4,
			MaxAttempts: 3,
			FailMap:     func(m, attempt int) bool { return m == 2 && attempt == 1 },
			FailReduce:  func(r, attempt int) bool { return r == 4 && attempt < 3 },
		}
	}
	want, wantSt, err := distTestJob(mkCfg()).Run(input)
	if err != nil {
		t.Fatal(err)
	}
	outs, sts, errs, _ := runDistributed(t, 3, input, func(int) *Job[int, int, int, string] {
		return distTestJob(mkCfg())
	})
	for self := 0; self < 3; self++ {
		if errs[self] != nil {
			t.Fatalf("worker %d: %v", self, errs[self])
		}
		if !reflect.DeepEqual(outs[self], want) {
			t.Errorf("worker %d: outputs diverge under fault injection", self)
		}
		got := normalizeDistStats(sts[self])
		if !reflect.DeepEqual(got, normalizeDistStats(wantSt)) {
			t.Errorf("worker %d: stats diverge under fault injection:\n got %+v\nwant %+v", self, got, normalizeDistStats(wantSt))
		}
	}
}

func TestDistErrorIdentity(t *testing.T) {
	input := make([]int, 100)
	for i := range input {
		input[i] = i
	}
	mkCfg := func() Config {
		return Config{Name: "dist-err", NumReducers: 5, NumMappers: 4, Parallelism: 2,
			MaxAttempts: 2,
			FailMap:     func(m, attempt int) bool { return m >= 1 }, // mappers 1..3 always fail
		}
	}
	_, _, inErr := distTestJob(mkCfg()).Run(input)
	if inErr == nil {
		t.Fatal("in-process run unexpectedly succeeded")
	}
	_, _, errs, tags := runDistributed(t, 3, input, func(int) *Job[int, int, int, string] {
		return distTestJob(mkCfg())
	})
	for self, err := range errs {
		if err == nil {
			t.Fatalf("worker %d: expected failure", self)
		}
		if err.Error() != inErr.Error() {
			t.Errorf("worker %d: error %q, in-process %q", self, err, inErr)
		}
		// The map reports head the run exchange, the first; a failed map
		// phase ends the job there.
		if want := []string{"runs"}; !slices.Equal(tags[self], want) {
			t.Errorf("worker %d: exchanges %q, want %q", self, tags[self], want)
		}
	}
}

// forgingExchanger plays worker 1 of a two-worker group to a real
// worker 0 of a job with four mappers and four reducers. It answers
// forged[tag] on the exchange of that tag; otherwise it ships cleanRuns,
// a clean map report and the empty runs of its mappers 2 and 3 for
// worker 0's reducers 0 and 1 under the job's default table, and echoes
// worker 0's own payload on any other exchange.
type forgingExchanger struct {
	forged map[string][]byte
}

// uv concatenates the varint encodings of vs.
func uv(vs ...uint64) []byte {
	var buf []byte
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// cleanReport is worker 1's map report when its two mappers ran once
// each: two attempts, no failure, no error.
var cleanReport = uv(2, 0, 0, 0)

// noRuns is worker 1's runs when its mappers emitted nothing: (mapper,
// reducer, pairs) for mappers 2 and 3 and worker 0's reducers 0 and 1,
// which the default table of four reducers on two workers gives it.
var noRuns = uv(2, 0, 0, 2, 1, 0, 3, 0, 0, 3, 1, 0)

// cleanRuns is worker 1's whole run payload to worker 0 when its mappers
// emitted nothing: its map report, then its runs.
var cleanRuns = slices.Concat(cleanReport, noRuns)

func (e *forgingExchanger) Recycle() {}

func (e *forgingExchanger) AllToAll(tag string, outgoing [][]byte) ([][]byte, error) {
	peer, ok := e.forged[tag]
	switch {
	case ok:
	case tag == "runs":
		peer = cleanRuns
	default:
		peer = outgoing[0]
	}
	return [][]byte{outgoing[0], peer}, nil
}

// runForgedPeer runs distTestJob as worker 0 against a forgingExchanger
// that answers forged by tag, its reducers placed by owner (nil: the
// default table), and returns the bytes the job allocated and its error.
func runForgedPeer(t *testing.T, owner []int, forged map[string][]byte) (uint64, error) {
	t.Helper()
	input := make([]int, 64)
	for i := range input {
		input[i] = i
	}
	j := distTestJob(Config{Name: "forged", NumReducers: 4, NumMappers: 4})
	j.Config.Dist = &DistConfig{NumWorkers: 2, Self: 0, Exchanger: &forgingExchanger{forged: forged}}
	cut := func(nm, w int) Cut { return Cut{Bounds: EvenSplits(len(input))(nm, w).Bounds, Owner: owner} }
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, _, _, err := j.RunBlocks(len(input), cut, func(lo, hi int, yield func(int) error) error {
		for _, v := range input[lo:hi] {
			if err := yield(v); err != nil {
				return err
			}
		}
		return nil
	})
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, err
}

// TestDistWireCountsBounded: a decoder trusts no count a peer sends.
// What it allocates follows the bytes it was sent: a payload claiming
// 2^40 records is an error before anything is sized from it, and a 1 MiB
// payload claiming 2^20 records the codec rejects costs the job less
// than 4 MiB of runs and less than its own size of outputs — both
// decoders keep a value only once it decodes, in the run it belongs to,
// and reserve nothing from a count. A record cut short by the end of the
// payload is an error. And a run payload is the sender's map report,
// then its runs for this worker's reducers, in order: a run out of
// place, bytes after the last run and an overlong varint are errors.
func TestDistWireCountsBounded(t *testing.T) {
	const mib = 1 << 20
	rejected := bytes.Repeat([]byte{0x80}, mib) // no varint ends in it
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	for _, c := range []struct {
		tag, want string
		forged    []byte
		budget    uint64
	}{
		// runs: the report, then mapper 2, reducer 0, 2^40 pairs, one byte
		// of them.
		{"runs", "pairs declared", cat(cleanReport, uv(2, 0, 1<<40), uv(0)), 16 << 20},
		// outputs: the five counters, no error, worker 1's two reducers,
		// the first r=2 pairs=0 nout=2^40, one byte of outputs.
		{"outputs", "outputs declared", append(uv(1, 0, 0, 0, 0, 0, 0, 2, 2, 0, 1<<40), 0), 16 << 20},
		// the same headers claiming 2^20 records, with 2^20 bytes the
		// codec rejects.
		{"runs", "an int record", cat(cleanReport, uv(2, 0, mib), rejected), 4 << 20},
		{"outputs", "a string record", cat(uv(1, 0, 0, 0, 0, 0, 0, 2, 2, 0, mib), rejected, uv(3, 0, 0)), mib},
		// reducer 3's one output claims 5 bytes, and the payload ends 2
		// bytes into it.
		{"outputs", "a string record: mapreduce: dist frame: truncated record", cat(uv(1, 0, 0, 0, 0, 0, 0, 2), uv(2, 0, 0), uv(3, 0, 1, 5), []byte("ab")), 1 << 20},
		// well-formed runs but for the one thing named.
		{"runs", "mapper 2 reducer 2 where mapper 2 reducer 0's belongs", cat(cleanReport, uv(2, 2, 0, 2, 1, 0, 3, 0, 0, 3, 1, 0)), 1 << 20},
		{"runs", "after the last run", cat(cleanRuns, uv(0)), 1 << 20},
		{"runs", "overlong varint", cat(cleanReport, []byte{0x82, 0x00}, noRuns[1:]), 1 << 20},
		{"runs", "overlong varint", cat([]byte{0x82, 0x00}, cleanReport[1:], noRuns), 1 << 20},
	} {
		grew, err := runForgedPeer(t, nil, map[string][]byte{c.tag: c.forged})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("forged %s payload: err = %v, want %q", c.tag, err, c.want)
		}
		if grew > c.budget {
			t.Errorf("forged %s payload (%q): job allocated %d bytes, budget %d", c.tag, c.want, grew, c.budget)
		}
	}
}

// TestDistGatherOwnership: a payload speaks only for its sender, under
// the owner table the job's cut gives every worker. Under the default
// table worker 1's outputs are its own reducers 2 and 3, ascending, each
// once — a claim on worker 0's reducer 0 would overwrite worker 0's
// outputs and count that reducer's pairs twice; under a table that gives
// worker 1 reducers 0 and 2, the default's entries, and runs for
// reducers 0 and 1, are claims on reducers it does not own. A task error
// names one of the job's tasks, and a map report carrying an error is
// the run payload alone. Anything else fails the job on the worker that
// reads it; a well-formed map error fails it with that error.
func TestDistGatherOwnership(t *testing.T) {
	counters := uv(1, 0, 0, 0, 0) // reduce attempts, failures, priced bytes, network bytes and runs
	noErr := uv(0, 0)
	empty := func(r uint64) []byte { return uv(r, 0, 0) }
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	outputs := func(p []byte) map[string][]byte { return map[string][]byte{"outputs": p} }
	runs := func(p []byte) map[string][]byte { return map[string][]byte{"runs": p} }
	both := func(runs, outputs []byte) map[string][]byte {
		return map[string][]byte{"runs": runs, "outputs": outputs}
	}
	// Worker 1 owns reducers 0 and 2, worker 0 reducers 1 and 3.
	swapped := []int{1, 0, 1, 0}
	swappedRuns := cat(cleanReport, uv(2, 1, 0, 2, 3, 0, 3, 1, 0, 3, 3, 0))
	for _, c := range []struct {
		want   string
		owner  []int
		forged map[string][]byte
	}{
		{"", nil, outputs(cat(counters, noErr, uv(2), empty(2), empty(3)))},
		{"reducer 0 reported where worker 1's reducer 2 belongs", nil, outputs(cat(counters, noErr, uv(2), uv(0, 1000, 0), empty(3)))},
		{"reducer 2 reported where worker 1's reducer 3 belongs", nil, outputs(cat(counters, noErr, uv(2), empty(2), empty(2)))},
		{"reducer 3 reported where worker 1's reducer 2 belongs", nil, outputs(cat(counters, noErr, uv(2), empty(3), empty(2)))},
		{"1 reducers reported, worker 1 owns 2", nil, outputs(cat(counters, noErr, uv(1), empty(2)))},
		{"3 reducers reported, worker 1 owns 2", nil, outputs(cat(counters, noErr, uv(3), empty(2), empty(3), empty(5)))},
		{"bytes after the last reducer", nil, outputs(cat(counters, noErr, uv(2), empty(2), empty(3), uv(0)))},
		{"an error of task 4, of 4 tasks", nil, outputs(cat(counters, uv(5, 1), []byte("x"), uv(2), empty(2), empty(3)))},
		{"an error message without a task", nil, outputs(cat(counters, uv(0, 1), []byte("x"), uv(2), empty(2), empty(3)))},
		// The cut's table moves worker 1's reducers to 0 and 2.
		{"", swapped, both(swappedRuns, cat(counters, noErr, uv(2), empty(0), empty(2)))},
		{"reducer 2 reported where worker 1's reducer 0 belongs", swapped, both(swappedRuns, cat(counters, noErr, uv(2), empty(2), empty(3)))},
		{"run of mapper 2 reducer 0 where mapper 2 reducer 1's belongs", swapped, both(cleanRuns, cat(counters, noErr, uv(2), empty(0), empty(2)))},
		// map report: map attempts and failures, then the error.
		{"bytes after a failed map phase's report", nil, runs(cat(uv(2, 1), uv(2, 1), []byte("x"), uv(0)))},
		{"bytes after a failed map phase's report", nil, runs(cat(uv(2, 1), uv(2, 1), []byte("x"), noRuns))},
		{"an error of task 7, of 4 tasks", nil, runs(cat(uv(2, 1), uv(8, 1), []byte("x")))},
		{"mapper 1 failed", nil, runs(cat(uv(2, 1), uv(2, 15), []byte("mapper 1 failed")))},
		{"bytes after the last run", nil, runs(cat(cleanRuns, uv(0)))},
		{"truncated varint", nil, runs(uv(2, 0))},
	} {
		_, err := runForgedPeer(t, c.owner, c.forged)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("well-formed payloads %x: %v", c.forged, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("forged payloads %x: err = %v, want %q", c.forged, err, c.want)
		}
	}
}

// outputRuns builds one output run per reducer from outs.
func outputRuns(outs [][]string, pool *BufferPool) []run[string] {
	runs := make([]run[string], len(outs))
	for r, rs := range outs {
		for _, o := range rs {
			runs[r].add(o, pool)
		}
	}
	return runs
}

// FuzzDistGathers: whatever bytes worker 1 ships as its outputs or
// resume-prefix payload, worker 0's barrier or agreement fails or
// learns exactly what the payload encodes — its counters, error,
// per-reducer pair counts and output runs, or its prefix, re-encode to
// the same bytes — never panics, and allocates no more than a small
// multiple of the payload. The seeds are built by the gathers' own
// encoders, so each decodes to what was encoded.
func FuzzDistGathers(f *testing.F) {
	const nm, nr = 4, 4
	pairs := []int64{0, 5, 0, 2}
	outs := outputRuns([][]string{nil, {"1:2,3,", ""}, nil, {"3:9,"}}, NewBufferPool())
	// A table by which worker 1 owns reducers 1 and 3.
	owner := []int{0, 1, 0, 1}
	outSeed := appendReduceReport(NewBufferPool(), [reduceReportCounters]int64{2, 0, 112, 123, 4}, taskError{idx: -1}, 1, owner, pairs, outs, &stringCodec)
	f.Add(uint8(0), outSeed)
	f.Add(uint8(0), append(slices.Clone(outSeed[:len(outSeed)-5]), uv(1<<40)...))
	f.Add(uint8(0), appendReduceReport(NewBufferPool(), [reduceReportCounters]int64{}, taskError{idx: 3, msg: "reducer 3 failed"}, 1, owner, pairs, outs, &stringCodec))
	f.Add(uint8(1), uv(1))
	f.Add(uint8(1), uv(1<<40))
	f.Add(uint8(1), uv(2))
	tags := []string{"outputs", "resume-prefix"}
	f.Fuzz(func(t *testing.T, gather uint8, payload []byte) {
		tag := tags[int(gather)%len(tags)]
		d := &DistConfig{NumWorkers: 2, Self: 0, Exchanger: &forgingExchanger{forged: map[string][]byte{tag: payload}}}
		j := distTestJob(Config{Name: "fuzz", NumReducers: nr, NumMappers: nm, Dist: d})
		// Worker 0 contributes nothing, so what it ends with is worker 1's.
		stats := &Stats{Job: "fuzz", PairsPerReducer: make([]int64, nr)}
		outputs := make([]run[string], nr)
		// Worker 0's chain has committed two steps, so it agrees on a
		// prefix of at most two.
		ch := committedChain(t, "fuzz", 2)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var err error
		switch tag {
		case "outputs":
			err = distReduceBarrier(j, &j.Config, stats, outputs, make([]error, nr), owner, NewBufferPool())
		case "resume-prefix":
			err = ch.AgreeResume(d)
		}
		runtime.ReadMemStats(&m1)
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 4*uint64(len(payload))+64<<10 {
			t.Fatalf("a %d-byte payload allocated %d bytes", len(payload), grew)
		}
		if err != nil {
			return
		}
		var got []byte
		switch tag {
		case "outputs":
			c := [reduceReportCounters]int64{stats.ReduceAttempts, stats.ReduceFailures, stats.IntermediateBytes, stats.ShuffleNetworkBytes, stats.ShuffleNetworkRuns}
			got = appendReduceReport(NewBufferPool(), c, taskError{idx: -1}, 1, owner, stats.PairsPerReducer, outputs, &j.Outputs)
		case "resume-prefix":
			// Each committed step is a data file and a meta file.
			n, _, _ := readUvarint(payload)
			if kept := len(ch.cfg.FS.List()); uint64(kept) != 2*min(n, 2) {
				t.Fatalf("worker 1 committed %d steps, worker 0 two, and worker 0 kept %d files", n, kept)
			}
			got = appendUvarints(nil, n)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s payload %x decoded, but re-encodes as %x", tag, payload, got)
		}
	})
}

// fuzzRunCodec is the job whose fixed-width value codec FuzzDistRuns
// decodes with:
// a frame it accepts re-encodes to the same bytes.
var fuzzRunCodec = sumTestJob(Config{})

// fuzzOwner is FuzzDistRuns' owner table: worker 0 owns reducers 0 and 2
// of four.
var fuzzOwner = []int{0, 1, 0, 1}

// appendFuzzRuns encodes worker 1's run payload to worker 0 of a
// two-worker job with four mappers and four reducers: its map report of
// counters c and error e and, unless e names a failed mapper, the runs
// of its mappers 2 and 3 for the reducers fuzzOwner gives worker 0.
func appendFuzzRuns(c [mapReportCounters]int64, e taskError, runs [][]run[int64]) []byte {
	buf := appendReport(nil, c[:], e)
	if e.idx >= 0 {
		return buf
	}
	for m := 2; m < len(runs); m++ {
		for r, o := range fuzzOwner {
			if o == 0 {
				buf = appendRun(buf, m, r, &runs[m][r], &fuzzRunCodec.Values)
			}
		}
	}
	return buf
}

// FuzzDistRuns: whatever bytes a peer ships as its run payload — its map
// report, then its runs — the decoders of the report and of the runs
// return an error or a report and runs that re-encode to exactly those
// bytes; they never panic, never keep a pair under another mapper or
// reducer, and allocate no more than a small multiple of the payload.
func FuzzDistRuns(f *testing.F) {
	pool := NewBufferPool()
	seed := make([][]run[int64], 4)
	for m := range seed {
		seed[m] = make([]run[int64], 4)
		for r := range seed[m] {
			for i := 0; i < m*r; i++ {
				seed[m][r].add(int64(100*m+i), pool)
			}
		}
	}
	noErr := taskError{idx: -1}
	failed := taskError{3, "mapper 3 failed"}
	f.Add(appendFuzzRuns([mapReportCounters]int64{2, 0}, noErr, seed))
	f.Add(slices.Concat(cleanReport, uv(2, 0, 0, 2, 2, 0, 3, 0, 0, 3, 2, 0)))
	f.Add(slices.Concat(cleanReport, uv(2, 0, 1<<20), uv(0)))
	f.Add(slices.Concat(cleanReport, uv(2, 0, 1), make([]byte, 8), uv(2, 2, 0, 3, 0, 0, 3, 2, 0)))
	// A clean report of a retried mapper, a failed map phase's report,
	// and one with runs after it.
	f.Add(appendFuzzRuns([mapReportCounters]int64{3, 1}, noErr, seed))
	f.Add(appendFuzzRuns([mapReportCounters]int64{2, 2}, failed, seed))
	f.Add(slices.Concat(appendFuzzRuns([mapReportCounters]int64{2, 2}, failed, seed), uv(2, 0, 0)))
	d := &DistConfig{NumWorkers: 2, Self: 0}
	f.Fuzz(func(t *testing.T, payload []byte) {
		runs := make([][]run[int64], 4)
		for m := range runs {
			runs[m] = make([]run[int64], 4)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var c [mapReportCounters]int64
		var e taskError
		rest, err := parseReport(payload, c[:], &e, 4)
		if err == nil && e.idx >= 0 && len(rest) > 0 {
			err = fmt.Errorf("%d bytes after a failed map phase's report", len(rest))
		}
		if err == nil && e.idx < 0 {
			err = decodeRuns(rest, d, 1, fuzzOwner, runs, &fuzzRunCodec.Values, nil, NewBufferPool())
		}
		runtime.ReadMemStats(&m1)
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 2*uint64(len(payload))+64<<10 {
			t.Fatalf("a %d-byte payload allocated %d bytes", len(payload), grew)
		}
		if err != nil {
			return
		}
		if got := appendFuzzRuns(c, e, runs); !bytes.Equal(got, payload) {
			t.Fatalf("payload %x decoded, but re-encodes as %x", payload, got)
		}
		for m := range runs {
			for r, o := range fuzzOwner {
				if n := runs[m][r].n; n > 0 && (m < 2 || o != 0) {
					t.Fatalf("mapper %d's run for reducer %d, which worker 1 does not send worker 0, holds %d pairs", m, r, n)
				}
			}
		}
	})
}

func TestDistValidation(t *testing.T) {
	input := []int{1, 2, 3}
	hub := newChanHub(2)
	// Missing NumMappers.
	j := distTestJob(Config{Name: "v", NumReducers: 2})
	j.Config.Dist = &DistConfig{NumWorkers: 2, Self: 0, Exchanger: hub.exchanger(0)}
	if _, _, err := j.Run(input); err == nil || !strings.Contains(err.Error(), "NumMappers") {
		t.Errorf("missing NumMappers: err = %v", err)
	}
	// Missing exchanger.
	j = distTestJob(Config{Name: "v", NumReducers: 2, NumMappers: 2})
	j.Config.Dist = &DistConfig{NumWorkers: 2, Self: 0}
	if _, _, err := j.Run(input); err == nil || !strings.Contains(err.Error(), "Exchanger") {
		t.Errorf("missing exchanger: err = %v", err)
	}
	// Missing output codec.
	j = distTestJob(Config{Name: "v", NumReducers: 2, NumMappers: 2})
	j.Config.Dist = &DistConfig{NumWorkers: 2, Self: 0, Exchanger: hub.exchanger(0)}
	j.Outputs = Codec[string]{}
	if _, _, err := j.Run(input); err == nil || !strings.Contains(err.Error(), "Outputs") {
		t.Errorf("missing output codec: err = %v", err)
	}
	// Self out of range.
	j = distTestJob(Config{Name: "v", NumReducers: 2, NumMappers: 2})
	j.Config.Dist = &DistConfig{NumWorkers: 2, Self: 2, Exchanger: hub.exchanger(0)}
	if _, _, err := j.Run(input); err == nil || !strings.Contains(err.Error(), "Self") {
		t.Errorf("self out of range: err = %v", err)
	}
	// NumWorkers == 1 needs no exchanger and no explicit NumMappers.
	j = distTestJob(Config{Name: "v", NumReducers: 2})
	j.Config.Dist = &DistConfig{NumWorkers: 1, Self: 0}
	if _, _, err := j.Run(input); err != nil {
		t.Errorf("degenerate single worker: %v", err)
	}
}

// paddedRecordBytes is the width of every record paddedTestJob encodes:
// a value and zero padding, so its exchanges carry megabytes while
// everything else the job allocates stays small.
const paddedRecordBytes = 512

// paddedTestJob routes value v to reducer v mod NumReducers and emits
// every value it reduces, so both the run exchange and the reduce
// barrier carry one padded record per input value.
func paddedTestJob(cfg Config) *Job[int, int, int, int] {
	nr := cfg.NumReducers
	codec := Codec[int]{
		Size: func(int) int { return paddedRecordBytes },
		Append: func(buf []byte, v int) []byte {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			return append(buf, make([]byte, paddedRecordBytes-8)...)
		},
		Read: func(buf []byte) (int, []byte, error) {
			if len(buf) < paddedRecordBytes {
				return 0, nil, fmt.Errorf("a record cut short at %d bytes, want %d", len(buf), paddedRecordBytes)
			}
			return int(binary.LittleEndian.Uint64(buf)), buf[paddedRecordBytes:], nil
		},
	}
	return &Job[int, int, int, int]{
		Config: cfg,
		Map: func(in int, emit func(int, int)) error {
			emit(in%nr, in)
			return nil
		},
		Reduce: func(_ int, vs []int, emit func(int)) error {
			for _, v := range vs {
				emit(v)
			}
			return nil
		},
		PairBytes: func(int, int) int { return paddedRecordBytes },
		Values:    codec,
		Outputs:   codec,
	}
}

// TestDistPayloadsRecycled: a distributed job encodes its run-exchange
// and reduce-barrier payloads into frames from its pool and puts them
// back once the exchange returns, so a warm run draws them from what
// the run before returned. Two workers share one pool over a chanHub
// that carries payloads in frames of that pool, as the mesh reads them.
// Everything else a worker allocates is what an in-process run of the
// same job allocates (its output, the run matrix, the tasks), so the
// warm two-worker run may allocate at most two warm in-process runs'
// bytes plus 64 KiB. Unpooled, its payloads and the hub's copies of
// them come to 6 MB.
func TestDistPayloadsRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	const n, nr, nm = 4096, 8, 4
	input := make([]int, n)
	for i := range input {
		input[i] = i
	}
	pool := NewBufferPool()
	hub := newChanHub(2)
	hub.pool = pool
	var netBytes int64
	distributed := func() {
		var wg sync.WaitGroup
		for self := 0; self < 2; self++ {
			wg.Add(1)
			go func(self int) {
				defer wg.Done()
				ex := hub.exchanger(self)
				defer ex.Recycle()
				j := paddedTestJob(Config{Name: "padded", NumReducers: nr, NumMappers: nm, Pool: pool})
				j.Config.Dist = &DistConfig{NumWorkers: 2, Self: self, Exchanger: ex}
				out, st, err := j.Run(input)
				if err != nil || len(out) != n {
					t.Errorf("worker %d: %d outputs, %v", self, len(out), err)
					return
				}
				if self == 0 {
					netBytes = st.ShuffleNetworkBytes
				}
			}(self)
		}
		wg.Wait()
	}
	inProcess := func() {
		j := paddedTestJob(Config{Name: "padded", NumReducers: nr, NumMappers: nm, Pool: pool})
		if out, _, err := j.Run(input); err != nil || len(out) != n {
			t.Fatalf("in-process: %d outputs, %v", len(out), err)
		}
	}
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	inProcess()
	distributed() // warm: the chunks, the slab, the frames
	local, dist := allocated(inProcess), allocated(distributed)
	t.Logf("warm in-process run %d B, warm two-worker run %d B; the workers shipped %d B of runs, the pool retains %d B", local, dist, netBytes, pool.Retained())
	if netBytes < n/2*paddedRecordBytes {
		t.Fatalf("the workers shipped %d B of runs; the check is vacuous", netBytes)
	}
	if bound := 2*local + 64<<10; dist > bound {
		t.Errorf("the warm two-worker run allocated %d B, bound %d (two in-process runs and 64 KiB)", dist, bound)
	}
}

// TestCodecReadContract: the engine holds a codec's Read to taking at
// least one byte from the front of what it was given and returning the
// rest of it, so a Read that takes nothing cannot spin on a count, and
// one that returns other bytes cannot read past its payload.
func TestCodecReadContract(t *testing.T) {
	buf := []byte{1, 2, 3}
	other := []byte{9}
	for _, c := range []struct {
		name string
		rest func([]byte) []byte
		ok   bool
	}{
		{"takes one byte", func(b []byte) []byte { return b[1:] }, true},
		{"takes every byte", func(b []byte) []byte { return b[len(b):] }, true},
		{"takes nothing", func(b []byte) []byte { return b }, false},
		{"returns other bytes", func([]byte) []byte { return other }, false},
		{"returns bytes before the front", func(b []byte) []byte { return b[:1] }, false},
	} {
		codec := Codec[int]{Read: func(b []byte) (int, []byte, error) { return 0, c.rest(b), nil }}
		if _, _, err := codec.read(buf); (err == nil) != c.ok {
			t.Errorf("a Read that %s: err = %v", c.name, err)
		}
	}
}
