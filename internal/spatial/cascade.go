package spatial

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/query"
	"mwsjoin/internal/sweep"
	"mwsjoin/internal/trace"
)

// cascadeVal is the value every cascade step shuffles: a partial tuple,
// as its key rectangle plus a reference into the round's input store,
// or an item of the new slot's relation. It is small and pointer-free,
// so the engine's runs and reducer inputs are memory the collector
// never scans.
type cascadeVal struct {
	Rect geom.Rect // a tuple's key rectangle, not enlarged, or an item's rectangle
	ID   int32     // an item's id, or a tuple's record index within its page
	Page int32     // the tuple's page in the input store; itemPage marks an item
}

const itemPage = -1

func (v cascadeVal) ref() partialRef { return partialRef{Page: v.Page, Idx: v.ID} }

// tupleVal is the shuffle value of the partial at ref, keyed by key.
func tupleVal(ref partialRef, key geom.Rect) cascadeVal {
	return cascadeVal{Rect: key, ID: ref.Idx, Page: ref.Page}
}

// cascade runs the 2-way Cascade baseline (§6.1): the multi-way query
// is evaluated as a left-deep sequence of 2-way map-reduce joins in the
// plan's slot order, with every intermediate result materialised on the
// simulated DFS and read back by the next job — the reading/writing
// cost §6.4 blames for this method's poor performance.
//
// Each step joins the current partial tuples with the next slot's base
// relation along one connecting edge (the plan's primary edge, §5
// style: split the relation; split the — possibly d-enlarged — tuple
// key rectangle), verifies any further connecting edges as filters, and
// de-duplicates with the §5.2/§5.3 rule: the cell containing the
// start-point of the intersection between the (enlarged) key rectangle
// and the new rectangle reports the pair.
func cascade(pl *plan, exec *executor) (*Result, error) {
	start := time.Now()

	countOnly := exec.cfg.CountOnly
	if pl.m == 1 {
		// A single-slot query has no join to cascade: emit everything.
		n, read, err := exec.openRelations(nil)
		if err != nil {
			return nil, err
		}
		var tuples []Tuple
		if !countOnly {
			tuples = make([]Tuple, 0, n)
			if err := read(0, n, func(it tagged) error {
				tuples = append(tuples, Tuple{IDs: []int32{it.ID}})
				return nil
			}); err != nil {
				return nil, err
			}
		}
		return &Result{Tuples: tuples, Stats: Stats{
			Method: Cascade, OutputTuples: int64(n), Wall: time.Since(start),
		}}, nil
	}

	// The cascade is a checkpointed chain: step p-1 of the chain runs
	// round p's 2-way join and commits the resulting partial tuples to
	// the DFS (the materialisation §6.4 blames); the next step reads
	// them back as its input. A run killed by Config.FailJob leaves the
	// completed checkpoints behind, and a Resume run on the same FS
	// skips every completed round, reusing its recorded Stats.
	ch, err := exec.chain("cascade")
	if err != nil {
		return nil, err
	}
	var rounds []*mapreduce.Stats
	var counted atomic.Int64
	for p := 1; p < pl.m; p++ {
		newSlot := pl.order[p]
		// One round span per cascade step: the 2-way join job plus its
		// checkpoint traffic (the previous checkpoint's read-back lands
		// in this step's round; its own output write is charged here).
		stepName := fmt.Sprintf("step-%d-%s", p, pl.q.Slots()[newSlot])
		roundSpan := exec.beginRound(stepName)
		// On the final step with CountOnly, tuples are counted at the
		// reducers instead of materialised and checkpointed.
		discard := countOnly && p == pl.m-1
		edges := pl.edgesToPrev[p]
		primary := edges[pl.primary[p]]
		// Position (within the partial) of the primary edge's bound
		// endpoint.
		keyPos := planPos(pl, primary.Other(newSlot))
		d := primary.Pred.Weight()
		// The partials the mappers read, and the ones the reducers emit.
		in, out := newPartialStore(p, exec.pool), exec.outputStore(p+1)
		codec := &cascadeCodec{in: in, slot: int8(newSlot), keyPos: keyPos}

		stepStart := time.Now()
		var jobEnd time.Time
		runStep := func(prev *dfs.View) (dfs.Segments, *mapreduce.Stats, error) {
			// The driver only opens the round's inputs — inside the step
			// closure, so a resumed run charges none of the reads — and
			// every map task reads its own split. The tuple side is the
			// previous step's checkpoint or, on the first step, the
			// first slot's relation as 1-member partials.
			tuples := prev
			if p == 1 {
				var err error
				if tuples, err = exec.fs.Open(inputFile(exec.rels[pl.order[0]].Name)); err != nil {
					return dfs.Segments{}, nil, err
				}
			}
			items, err := exec.fs.Open(inputFile(exec.rels[newSlot].Name))
			if err != nil {
				return dfs.Segments{}, nil, err
			}
			nt := tuples.Len()
			// The job input is the tuples then the items, in file order:
			// the shuffle delivers a cell's values in (mapper index, emit
			// order), which is this input order, so a side read from a
			// staged relation reaches its reducer in sweep order.
			read := func(lo, hi int, yield func(cascadeVal) error) error {
				if thi := min(hi, nt); lo < thi {
					// The split's tuples fill pages of the input store.
					w := in.writer()
					var err error
					if p == 1 {
						err = tuples.MBBs(lo, thi, func(m dfs.MBB) error {
							ref, rec := w.take(1)
							binary.LittleEndian.PutUint16(rec, 1)
							putMember(rec[2:], m.ID, mbbRect(m))
							return yield(tupleVal(ref, mbbRect(m)))
						})
					} else {
						err = tuples.Records(lo, thi, func(rec []byte) error {
							if err := checkPartial(rec, p); err != nil {
								return err
							}
							ref, dst := w.take(1)
							copy(dst, rec)
							return yield(tupleVal(ref, partialRect(rec, keyPos)))
						})
					}
					if err != nil {
						return err
					}
				}
				if ilo := max(lo, nt); ilo < hi {
					return items.MBBs(ilo-nt, hi-nt, func(m dfs.MBB) error {
						return yield(cascadeVal{Rect: mbbRect(m), ID: m.ID, Page: itemPage})
					})
				}
				return nil
			}

			job := &mapreduce.Job[cascadeVal, grid.CellID, cascadeVal, []byte]{
				Config: exec.jobConfig(fmt.Sprintf("cascade-%d-%s", p, pl.q.Slots()[newSlot])),
				Map: func(v cascadeVal, emit func(grid.CellID, cascadeVal)) error {
					key := v.Rect
					if v.Page != itemPage && d > 0 {
						key = key.Enlarge(d)
					}
					exec.part.ForEachSplit(key, func(c grid.CellID) { emit(c, v) })
					return nil
				},
				Reduce: cascadeReduce(pl, exec.part, in, out, newSlot, edges, primary, discard, &counted),
				PairBytes: func(_ grid.CellID, v cascadeVal) int {
					if v.Page != itemPage {
						return 4 + in.stride
					}
					return 4 + dfs.MBBRecordBytes
				},
				EncodePair: codec.encodePair,
				DecodePair: codec.decodePair,
				// An emitted segment travels as its checkpoint records.
				EncodeOutput: func(seg, buf []byte) []byte { return append(buf, seg...) },
				DecodeOutput: func(seg []byte) ([]byte, error) { _, dst, err := out.decode(seg); return dst, err },
			}
			exec.tr.Observe(roundSpan, trace.KindPhase, "load-inputs", stepStart, time.Now())
			segs, st, err := job.RunSplits(nt+items.Len(), read)
			jobEnd = time.Now()
			if err != nil {
				return dfs.Segments{}, nil, err
			}
			// The emitted records are already in checkpoint layout: the
			// step's output file is the reducers' pages, segment by
			// segment, and its Stats count records, not segments.
			chk := dfs.Segments{Stride: out.stride, Segs: segs}
			st.ReduceOutputRecords = chk.Len()
			return chk, st, nil
		}

		var st *mapreduce.Stats
		var err error
		if discard {
			// Counted output is consumed in place; a FinalStep commits
			// nothing and therefore re-runs on every resume.
			st, err = ch.FinalStep(stepName, func(prev *dfs.View) (*mapreduce.Stats, error) {
				_, st, err := runStep(prev)
				return st, err
			})
		} else {
			st, err = ch.Step(stepName, runStep)
		}
		// The job has returned and its outputs are copies, so nothing
		// reads the round's input partials any more.
		in.release()
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, st)
		if !jobEnd.IsZero() {
			exec.tr.Observe(roundSpan, trace.KindPhase, "checkpoint-write", jobEnd, time.Now())
		}
		exec.endRound(roundSpan)
	}

	// Convert plan-ordered partials to slot-ordered tuples, reading the
	// final checkpoint back from the DFS — the read a consumer of the
	// cascade's materialised result pays. All tuples share one id slab.
	var tuples []Tuple
	if !countOnly {
		assemble := exec.tr.Start(exec.runSpan, trace.KindPhase, "assemble-tuples")
		final, err := ch.Output()
		if err != nil {
			return nil, err
		}
		tuples = make([]Tuple, 0, final.Len())
		ids := make([]int32, final.Len()*pl.m)
		err = final.Records(0, final.Len(), func(rec []byte) error {
			if err := checkPartial(rec, pl.m); err != nil {
				return err
			}
			t := ids[:pl.m:pl.m]
			ids = ids[pl.m:]
			for pos, slot := range pl.order {
				t[slot] = partialID(rec, pos)
			}
			tuples = append(tuples, Tuple{IDs: t})
			return nil
		})
		if err != nil {
			return nil, err
		}
		counted.Store(int64(len(tuples)))
		exec.tr.End(assemble)
	}
	cs := ch.Stats()
	return &Result{Tuples: tuples, Stats: Stats{
		Method:       Cascade,
		Rounds:       rounds,
		Chain:        &cs,
		OutputTuples: counted.Load(),
		Wall:         time.Since(start),
	}}, nil
}

// sweepOrder maps a finite float64 to a uint64 that compares the way
// the float does. Adding zero first folds -0 into +0: they compare
// equal as floats, so they must tie here too.
func sweepOrder(x float64) uint64 {
	b := math.Float64bits(x + 0)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortSweepWords puts one side of a cell into sweep order — ascending
// (MinX, arrival position). side holds the side's arrival positions,
// ascending, and xs sweepOrder of the MinX at every position; on return
// side holds one word per value in sweep order, with the position in
// the low 32 bits. buf is scratch the sort grows and keeps. A side is
// the cascade's tuples or its items, one slot of a multi-way cell, or a
// whole relation on its way to the DFS (stageRows).
//
// Relations are staged in sweep order, so a side that carries only
// staged records arrives sorted; one pass finds that and returns. Any
// other side is sorted without a comparator: the high 32 bits of a word
// are the value's offset from the smallest MinX of its side, shifted
// right until the largest fits, and a stable radix sort on them keeps
// equal offsets in position order. Where the shift dropped bits, values
// whose offsets agree above it form a run that is in position order,
// not MinX order; those runs are re-sorted on the exact (MinX,
// position), which leaves the permutation a comparator sort of the
// whole side produces.
func sortSweepWords(side, xs []uint64, buf *[]uint64) {
	if len(side) < 2 {
		return
	}
	lo, hi := xs[side[0]], xs[side[0]]
	sorted := true
	for k := 1; k < len(side); k++ {
		x := xs[side[k]]
		sorted = sorted && x >= xs[side[k-1]]
		lo, hi = min(lo, x), max(hi, x)
	}
	if sorted {
		return
	}
	shift := max(bits.Len64(hi-lo), 32) - 32
	for k, i := range side {
		side[k] = (xs[i]-lo)>>shift<<32 | i
	}
	radixSortHigh(side, buf)
	if shift == 0 {
		return
	}
	exact := func(a, b uint64) int {
		return cmp.Or(cmp.Compare(xs[uint32(a)], xs[uint32(b)]), cmp.Compare(a, b))
	}
	for from := 0; from < len(side); {
		to := from + 1
		for to < len(side) && side[to]>>32 == side[from]>>32 {
			to++
		}
		if to-from > 1 {
			slices.SortFunc(side[from:to], exact)
		}
		from = to
	}
}

// radixSortHigh sorts words stably by their high 32 bits: one counting
// pass per byte, least significant first, skipping a byte every word
// shares. buf is the passes' second array.
func radixSortHigh(words []uint64, buf *[]uint64) {
	var count [4][256]uint32
	for _, w := range words {
		count[0][byte(w>>32)]++
		count[1][byte(w>>40)]++
		count[2][byte(w>>48)]++
		count[3][byte(w>>56)]++
	}
	if cap(*buf) < len(words) {
		*buf = make([]uint64, len(words))
	}
	src, dst := words, (*buf)[:len(words)]
	for d := range count {
		shift := 32 + 8*d
		c := &count[d]
		if c[byte(src[0]>>shift)] == uint32(len(src)) {
			continue
		}
		var sum uint32
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, w := range src {
			b := byte(w >> shift)
			dst[c[b]] = w
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &words[0] {
		copy(words, src)
	}
}

// cellScratch is cascadeReduce's per-cell working set, recycled across
// the cells, rounds and executions of the process through
// cellScratchPool: a reduce call owns one until it returns, and empties
// every slice before it reads one.
type cellScratch struct {
	xs    []uint64    // sweepOrder of every value's MinX, by arrival position
	order []uint64    // sortSweepWords: the tuples, then the items
	buf   []uint64    // sortSweepWords' scratch
	recs  [][]byte    // tuple records and
	keys  []geom.Rect // their key rectangles, in sweep order
	ids   []int32     // item ids and
	rects []geom.Rect // rectangles, in sweep order
}

var cellScratchPool = sync.Pool{New: func() any { return new(cellScratch) }}

// cascadeReduce joins the partial tuples and new-slot items delivered to
// one cell with a forward plane sweep over the tuples' key rectangles and
// the items — the classic SJMR-style in-reducer join (§5). A cell's
// partials fill pages of out of its own, each emitted as one segment.
func cascadeReduce(pl *plan, part *grid.Partitioning, in, out *partialStore, newSlot int, edges []query.Edge, primary query.Edge, discard bool, counted *atomic.Int64) func(grid.CellID, []cascadeVal, func([]byte)) error {
	d := primary.Pred.Weight()
	return func(c grid.CellID, vals []cascadeVal, emit func([]byte)) error {
		sc := cellScratchPool.Get().(*cellScratch)
		defer cellScratchPool.Put(sc)

		// Sweep order is (MinX, arrival position), tuples and items
		// apart. A cell's values arrive in job-input order, and the
		// relations are staged in sweep order, so the items — and, in
		// step one, the tuples, which are the first slot's relation —
		// arrive sorted and sortSweepWords only checks them. The tuples
		// of later steps come from the previous step's checkpoint, in
		// reducer order, and are sorted here.
		sc.xs, sc.order = sc.xs[:0], sc.order[:0]
		for i := range vals {
			sc.xs = append(sc.xs, sweepOrder(vals[i].Rect.MinX()))
			if vals[i].Page != itemPage {
				sc.order = append(sc.order, uint64(i))
			}
		}
		nt := len(sc.order)
		if nt == 0 || nt == len(vals) {
			return nil
		}
		for i := range vals {
			if vals[i].Page == itemPage {
				sc.order = append(sc.order, uint64(i))
			}
		}
		sortSweepWords(sc.order[:nt], sc.xs, &sc.buf)
		sortSweepWords(sc.order[nt:], sc.xs, &sc.buf)
		sc.recs, sc.keys, sc.ids, sc.rects = sc.recs[:0], sc.keys[:0], sc.ids[:0], sc.rects[:0]
		for _, w := range sc.order[:nt] {
			v := &vals[uint32(w)]
			sc.recs = append(sc.recs, in.rec(v.ref()))
			sc.keys = append(sc.keys, v.Rect)
		}
		for _, w := range sc.order[nt:] {
			v := &vals[uint32(w)]
			sc.ids = append(sc.ids, v.ID)
			sc.rects = append(sc.rects, v.Rect)
		}

		w := out.writer()
		w.emit = emit
		sweep.JoinSorted(sc.keys, sc.rects, d, func(i, j int) bool {
			t, id, r := sc.recs[i], sc.ids[j], sc.rects[j]
			if !cascadeAccepts(pl, t, newSlot, id, r, edges, primary) {
				return true
			}
			// §5.2/§5.3 duplicate avoidance: only the cell owning the
			// start-point of enlKey ∩ item computes the pair. The point
			// comes from the edges, not from enlKey.Intersection: the
			// sweep accepted the pair on its exact gaps, and where the
			// float enlargement falls an ulp short of the item the
			// intersection is empty and the pair would be lost.
			enlKey := sc.keys[i]
			if d > 0 {
				enlKey = enlKey.Enlarge(d)
			}
			start := geom.Point{X: max(enlKey.MinX(), r.MinX()), Y: min(enlKey.MaxY(), r.MaxY())}
			if part.CellOf(start) != c {
				return true
			}
			if discard {
				counted.Add(1)
				return true
			}
			// t's members then the new one, under the grown count.
			_, rec := w.take(1)
			binary.LittleEndian.PutUint16(rec, uint16(out.m))
			putMember(rec[copy(rec[2:], t[2:])+2:], id, r)
			return true
		})
		w.flush()
		return nil
	}
}

// cascadeAccepts verifies the non-primary connecting edges and
// self-join distinctness for appending item (id, r) to the partial
// record t.
func cascadeAccepts(pl *plan, t []byte, newSlot int, id int32, r geom.Rect, edges []query.Edge, primary query.Edge) bool {
	for _, e := range edges {
		if e == primary {
			continue // guaranteed by the index probe
		}
		pos := planPos(pl, e.Other(newSlot))
		if !e.Pred.Eval(r, partialRect(t, pos)) {
			return false
		}
	}
	if pl.distinct {
		members := int(binary.LittleEndian.Uint16(t))
		for pos, slot := range pl.order[:members] {
			if !pl.compatible(slot, partialID(t, pos), newSlot, id) {
				return false
			}
		}
	}
	return true
}

// planPos returns the position of slot within the plan order.
func planPos(pl *plan, slot int) int {
	for pos, s := range pl.order {
		if s == slot {
			return pos
		}
	}
	panic(fmt.Sprintf("spatial: slot %d not in plan order %v", slot, pl.order))
}
