package spatial

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/query"
	"mwsjoin/internal/trace"
)

// cascadeVal is the value every cascade step shuffles: a partial tuple,
// as its key rectangle, its slot in the round's input store and its
// position in the round's tuple file, or an item of the new slot's
// relation. It is small and pointer-free, so the engine's runs and
// reducer inputs are memory the collector never scans.
type cascadeVal struct {
	Rect geom.Rect // a tuple's key rectangle, not enlarged, or an item's rectangle
	ID   int32     // an item's id, or a tuple's slot in the input store (partialStore.slot)
	Pos  int32     // a tuple's record index in the round's tuple file, its tie-break in sweep order; itemPos marks an item
}

const itemPos = -1

// tupleVal is the shuffle value of the partial at ref in s, record pos
// of the round's tuple file, keyed by key.
func (s *partialStore) tupleVal(ref partialRef, key geom.Rect, pos int32) cascadeVal {
	return cascadeVal{Rect: key, ID: s.slot(ref), Pos: pos}
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
func cascade(pl *plan, exec *executor) (Rows, Stats, error) {
	start := time.Now()

	countOnly := exec.cfg.CountOnly
	rows := Rows{Arity: pl.m}
	if pl.m == 1 {
		// A single-slot query has no join to cascade: emit everything.
		in, read, err := exec.openRelations(nil)
		if err != nil {
			return Rows{}, Stats{}, err
		}
		n := in.n
		if !countOnly {
			rows.IDs = mapreduce.Slab[int32](exec.cfg.Dist.Slabs(), n)[:0]
			if err := read(0, n, func(it tagged) error {
				rows.IDs = append(rows.IDs, it.ID)
				return nil
			}); err != nil {
				return Rows{}, Stats{}, err
			}
		}
		return rows, Stats{Method: Cascade, OutputTuples: int64(n), Wall: time.Since(start)}, nil
	}

	// The cascade is a checkpointed chain: step p-1 of the chain runs
	// round p's 2-way join and commits the resulting partial tuples to
	// the DFS (the materialisation §6.4 blames); the next step reads
	// them back as its input. A run killed by Config.FailJob leaves the
	// completed checkpoints behind, and a Resume run on the same FS
	// skips every completed round, reusing its recorded Stats.
	ch, err := exec.chain("cascade")
	if err != nil {
		return Rows{}, Stats{}, err
	}
	var rounds []*mapreduce.Stats
	var counted atomic.Int64
	// layouts[p] is the record layout of p-member partials: round p's
	// input, and round p-1's output.
	layouts := make([]*partialLayout, pl.m+1)
	for p := 1; p <= pl.m; p++ {
		layouts[p] = pl.layout(p)
	}
	// cellEnds are where each cell's records end in the last step's
	// checkpoint, the cells in CellID order; nil when that step did not
	// run here.
	var cellEnds []int
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
		in, out := newPartialStore(layouts[p], exec.pool), exec.outputStore(layouts[p+1])
		codec := &cascadeCodec{in: in, slot: int8(newSlot), keyPos: keyPos}

		stepStart := time.Now()
		var jobEnd time.Time
		// prevEnds places the records of the step's input checkpoint in
		// their cells, when the previous step ran in this execution.
		prevEnds := cellEnds
		cellEnds = nil
		runStep := func(prev *dfs.View) (dfs.Segments, *mapreduce.Stats, error) {
			// The driver only opens the round's inputs — inside the step
			// closure, so a resumed run charges none of the reads — and
			// every map task reads its own split. The tuple side is the
			// previous step's checkpoint or, on the first step, the
			// first slot's relation as 1-member partials.
			var tuples inputSide
			if p == 1 {
				var err error
				if tuples, err = exec.openRelation(exec.rels[pl.order[0]].Name); err != nil {
					return dfs.Segments{}, nil, err
				}
			} else if err := checkLayout(ch.LastCheckpoint(), prev, in.layout); err != nil {
				return dfs.Segments{}, nil, err
			} else {
				tuples = inputSide{v: prev}
				if len(prevEnds) > 0 && prevEnds[len(prevEnds)-1] == prev.Len() {
					tuples.cellEnds = prevEnds
				}
			}
			if tuples.v.Len() > math.MaxInt32 {
				return dfs.Segments{}, nil, fmt.Errorf("spatial: %d partials, more than a tuple position counts", tuples.v.Len())
			}
			items, err := exec.openRelation(exec.rels[newSlot].Name)
			if err != nil {
				return dfs.Segments{}, nil, err
			}
			input := exec.newJobInput([]inputSide{tuples, items})
			// Every split holds tuples then items, each side in file
			// order: the shuffle delivers a cell's values in (mapper
			// index, emit order), so a side read from a staged relation
			// reaches its reducer in sweep order, and a tuple carries
			// its position in the tuple file, the tie-break of its
			// reducer's sweep order.
			read := func(lo, hi int, yield func(cascadeVal) error) error {
				// The split's tuples fill pages of the input store.
				w := in.writer()
				return input.each(lo, hi, func(side, lo, hi int) error {
					pos := int32(lo)
					switch {
					case side == 1:
						return items.v.MBBs(lo, hi, func(m dfs.MBB) error {
							return yield(cascadeVal{Rect: mbbRect(m), ID: m.ID, Pos: itemPos})
						})
					case p == 1:
						return tuples.v.MBBs(lo, hi, func(m dfs.MBB) error {
							ref, rec := w.take(1)
							binary.LittleEndian.PutUint16(rec, 1)
							putPartialMember(in.layout, rec, 0, m.ID, mbbRect(m))
							pos++
							return yield(in.tupleVal(ref, mbbRect(m), pos-1))
						})
					default:
						return tuples.v.Records(lo, hi, func(rec []byte) error {
							if err := checkPartial(rec, in.layout); err != nil {
								return err
							}
							ref, dst := w.take(1)
							copy(dst, rec)
							pos++
							return yield(in.tupleVal(ref, partialRect(in.layout, rec, keyPos), pos-1))
						})
					}
				})
			}

			job := &mapreduce.Job[cascadeVal, grid.CellID, cascadeVal, []byte]{
				Config: exec.jobConfig(fmt.Sprintf("cascade-%d-%s", p, pl.q.Slots()[newSlot])),
				Map: func(v cascadeVal, emit func(grid.CellID, cascadeVal)) error {
					key := v.Rect
					if v.Pos != itemPos && d > 0 {
						key = key.Enlarge(d)
					}
					exec.part.ForEachSplit(key, func(c grid.CellID) { emit(c, v) })
					return nil
				},
				Reduce: cascadeReduce(pl, exec.part, exec.pool, in, out, newSlot, edges, primary, discard, &counted),
				PairBytes: func(_ grid.CellID, v cascadeVal) int {
					if v.Pos != itemPos {
						return 4 + in.stride
					}
					return 4 + dfs.MBBRecordBytes
				},
				Values:  codec.values(),
				Outputs: segmentCodec(out),
			}
			exec.tr.Observe(roundSpan, trace.KindPhase, "load-inputs", stepStart, time.Now())
			segs, ends, st, err := job.RunBlocks(input.n, input.cut, read)
			jobEnd = time.Now()
			if err != nil {
				return dfs.Segments{}, nil, err
			}
			// The emitted records are already in checkpoint layout: the
			// step's output file is the reducers' pages, segment by
			// segment, and its Stats count records, not segments.
			chk := dfs.Segments{Stride: out.stride, Segs: segs}
			st.ReduceOutputRecords = chk.Len()
			cellEnds = make([]int, len(ends))
			for c, at, k := 0, 0, 0; c < len(ends); c++ {
				for ; k < ends[c]; k++ {
					at += len(segs[k]) / out.stride
				}
				cellEnds[c] = at
			}
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
			return Rows{}, Stats{}, err
		}
		rounds = append(rounds, st)
		if !jobEnd.IsZero() {
			exec.tr.Observe(roundSpan, trace.KindPhase, "checkpoint-write", jobEnd, time.Now())
		}
		exec.endRound(roundSpan)
	}

	// Convert plan-ordered partials to slot-ordered rows, reading the
	// final checkpoint back from the DFS — the read a consumer of the
	// cascade's materialised result pays — into one ID slab.
	if !countOnly {
		assemble := exec.tr.Start(exec.runSpan, trace.KindPhase, "assemble-tuples")
		final, err := ch.Output()
		if err != nil {
			return Rows{}, Stats{}, err
		}
		l := layouts[pl.m]
		if err := checkLayout(ch.LastCheckpoint(), final, l); err != nil {
			return Rows{}, Stats{}, err
		}
		rows.IDs = mapreduce.Slab[int32](exec.cfg.Dist.Slabs(), final.Len()*pl.m)
		row := rows.IDs
		err = final.Records(0, final.Len(), func(rec []byte) error {
			if err := checkPartial(rec, l); err != nil {
				return err
			}
			for pos, slot := range pl.order {
				row[slot] = partialID(l, rec, pos)
			}
			row = row[pl.m:]
			return nil
		})
		if err != nil {
			return Rows{}, Stats{}, err
		}
		counted.Store(int64(rows.Len()))
		exec.tr.End(assemble)
	}
	cs := ch.Stats()
	return rows, Stats{
		Method:       Cascade,
		Rounds:       rounds,
		Chain:        &cs,
		OutputTuples: counted.Load(),
		Wall:         time.Since(start),
	}, nil
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
// (MinX, tie), where the tie-break of the value at arrival position i is
// tie(i), or i itself when tie is nil. side holds the side's arrival
// positions, ascending, and xs sweepOrder of the MinX at every position;
// on return side holds one word per value in sweep order, with the
// position in the low 32 bits. buf is scratch the sort grows and keeps.
// A side is the cascade's tuples or its items, one slot of a multi-way
// cell, or a whole relation on its way to the DFS (stageRows).
//
// Relations are staged in sweep order, so a side that carries only
// staged records arrives sorted; one pass finds that and returns. Any
// other side is sorted without a comparator: the high 32 bits of a word
// are the value's offset from the smallest MinX of its side, shifted
// right until the largest fits, and a stable radix sort on them keeps
// equal offsets in position order. Where the shift dropped bits, or a
// tie-break other than the position is asked for, values whose offsets
// agree above it form a run that is in position order, not sweep order;
// those runs are re-sorted on the exact (MinX, tie), which leaves the
// permutation a comparator sort of the whole side produces.
func sortSweepWords(side, xs []uint64, tie func(i uint64) uint32, buf *[]uint64) {
	if len(side) < 2 {
		return
	}
	lo, hi := xs[side[0]], xs[side[0]]
	sorted := true
	for k := 1; k < len(side); k++ {
		x, prev := xs[side[k]], xs[side[k-1]]
		sorted = sorted && (x > prev || x == prev && (tie == nil || tie(side[k]) > tie(side[k-1])))
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
	if shift == 0 && tie == nil {
		return
	}
	key := func(w uint64) uint64 {
		i := uint64(uint32(w))
		if tie != nil {
			return uint64(tie(i))
		}
		return i
	}
	exact := func(a, b uint64) int {
		return cmp.Or(cmp.Compare(xs[uint32(a)], xs[uint32(b)]), cmp.Compare(key(a), key(b)))
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

// cascadeReduce joins the partial tuples and new-slot items delivered to
// one cell with a forward plane sweep over the tuples' key rectangles and
// the items — the classic SJMR-style in-reducer join (§5), in a cellData
// drawn from pool as its working set. A cell's partials fill pages of
// out of its own, each emitted as one segment.
func cascadeReduce(pl *plan, part *grid.Partitioning, pool *mapreduce.BufferPool, in, out *partialStore, newSlot int, edges []query.Edge, primary query.Edge, discard bool, counted *atomic.Int64) func(grid.CellID, []cascadeVal, func([]byte)) error {
	d := primary.Pred.Weight()
	return func(c grid.CellID, vals []cascadeVal, emit func([]byte)) error {
		cd := mapreduce.GetScratch[cellData](pool, len(vals))
		defer cd.release(pool)

		// Sweep order is (MinX, position in the round's input file),
		// tuples and items apart. Items reach a cell in file order, and
		// the relations are staged in sweep order, so they arrive sorted
		// and sortSweepWords only checks them. Tuples arrive in file
		// order from each mapper, mapper after mapper, and carry their
		// positions (Pos), which break their MinX ties: the order one
		// pass over the file would give them, however the map splits
		// cut it. In step one they are the first slot's relation and are
		// only checked; in later steps, the previous step's checkpoint in
		// reducer order, they are sorted here.
		cd.xs, cd.words = reserve(cd.xs, len(vals)), reserve(cd.words, len(vals))
		for i := range vals {
			cd.xs = append(cd.xs, sweepOrder(vals[i].Rect.MinX()))
			if vals[i].Pos != itemPos {
				cd.words = append(cd.words, uint64(i))
			}
		}
		nt := len(cd.words)
		if nt == 0 || nt == len(vals) {
			return nil
		}
		for i := range vals {
			if vals[i].Pos == itemPos {
				cd.words = append(cd.words, uint64(i))
			}
		}
		sortSweepWords(cd.words[:nt], cd.xs, func(i uint64) uint32 { return uint32(vals[i].Pos) }, &cd.buf)
		sortSweepWords(cd.words[nt:], cd.xs, nil, &cd.buf)
		cd.recs, cd.as, cd.idBuf, cd.rectBuf = reserve(cd.recs, nt), reserve(cd.as, nt), reserve(cd.idBuf, len(vals)-nt), reserve(cd.rectBuf, len(vals)-nt)
		for _, w := range cd.words[:nt] {
			v := &vals[uint32(w)]
			cd.recs = append(cd.recs, in.at(v.ID))
			cd.as = append(cd.as, v.Rect)
		}
		for _, w := range cd.words[nt:] {
			v := &vals[uint32(w)]
			cd.idBuf = append(cd.idBuf, v.ID)
			cd.rectBuf = append(cd.rectBuf, v.Rect)
		}

		w := out.writer()
		w.emit = emit
		cd.join.JoinSorted(cd.as, cd.rectBuf, d, func(i, j int) bool {
			t, id, r := cd.recs[i], cd.idBuf[j], cd.rectBuf[j]
			if !cascadeAccepts(pl, in.layout, t, newSlot, id, r, edges, primary) {
				return true
			}
			// §5.2/§5.3 duplicate avoidance: only the cell owning the
			// start-point of enlKey ∩ item computes the pair. The point
			// comes from the edges, not from enlKey.Intersection: the
			// sweep accepted the pair on its exact gaps, and where the
			// float enlargement falls an ulp short of the item the
			// intersection is empty and the pair would be lost.
			enlKey := cd.as[i]
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
			// t's members, their rectangles no later round reads
			// dropped, then the new one, under the grown count.
			_, rec := w.take(1)
			binary.LittleEndian.PutUint16(rec, uint16(out.layout.members()))
			project(in.layout, out.layout, t, rec)
			putPartialMember(out.layout, rec, in.layout.members(), id, r)
			return true
		})
		w.flush()
		return nil
	}
}

// cascadeAccepts verifies the non-primary connecting edges and
// self-join distinctness for appending item (id, r) to the partial
// record t, of layout l.
func cascadeAccepts(pl *plan, l *partialLayout, t []byte, newSlot int, id int32, r geom.Rect, edges []query.Edge, primary query.Edge) bool {
	for _, e := range edges {
		if e == primary {
			continue // guaranteed by the index probe
		}
		pos := planPos(pl, e.Other(newSlot))
		if !e.Pred.Eval(r, partialRect(l, t, pos)) {
			return false
		}
	}
	if pl.distinct {
		for pos, slot := range pl.order[:l.members()] {
			if !pl.compatible(slot, partialID(l, t, pos), newSlot, id) {
				return false
			}
		}
	}
	return true
}

// layout is the record layout of the plan's p-member partials, round
// p's input (1 ≤ p ≤ m): every member keeps its id, and its rectangle
// only if an edge into a slot that round p or a later one binds reads
// it — that round's key or one of its filters, all in edgesToPrev.
func (pl *plan) layout(p int) *partialLayout {
	rect := make([]bool, p)
	for q := p; q < pl.m; q++ {
		for _, e := range pl.edgesToPrev[q] {
			if pos := planPos(pl, e.Other(pl.order[q])); pos < p {
				rect[pos] = true
			}
		}
	}
	return newPartialLayout(rect)
}

// CheckpointLayoutError reports a cascade checkpoint whose records are
// not the layout of the round that reads it, as a checkpoint written by
// code that laid partials out otherwise is: File holds RecordBytes-byte
// records, the round's layout is LayoutBytes. No record of it is read.
type CheckpointLayoutError struct {
	File        string
	RecordBytes int
	LayoutBytes int
}

func (e *CheckpointLayoutError) Error() string {
	return fmt.Sprintf("spatial: checkpoint %q holds %d-byte records, this round's layout is %d bytes; use a fresh FS", e.File, e.RecordBytes, e.LayoutBytes)
}

// checkLayout fails a checkpoint, the view v of file, whose records are
// not l's.
func checkLayout(file string, v *dfs.View, l *partialLayout) error {
	if n := v.Len(); n > 0 && v.Bytes() != int64(n)*int64(l.stride) {
		return &CheckpointLayoutError{File: file, RecordBytes: int(v.Bytes() / int64(n)), LayoutBytes: l.stride}
	}
	return nil
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
