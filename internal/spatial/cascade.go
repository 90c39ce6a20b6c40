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
	"mwsjoin/internal/metrics"
	"mwsjoin/internal/query"
	"mwsjoin/internal/sweep"
	"mwsjoin/internal/trace"
)

// cascadeVal is the value every cascade step shuffles: a partial tuple,
// as its key rectangle plus a reference into the round's input store,
// or an item of the new slot's relation. It is small and pointer-free,
// so sorted runs, merge intermediates and reducer inputs are memory the
// collector never scans.
type cascadeVal struct {
	Rect geom.Rect // a tuple's key rectangle, not enlarged, or an item's rectangle
	ID   int32     // an item's id, or a tuple's record index within its slab
	Slab int32     // the tuple's slab in the input store; itemSlab marks an item
}

const itemSlab = -1

func (v cascadeVal) ref() partialRef { return partialRef{Slab: v.Slab, Idx: v.ID} }

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
		items, err := exec.loadRelation(0)
		if err != nil {
			return nil, err
		}
		var tuples []Tuple
		if !countOnly {
			tuples = make([]Tuple, len(items))
			for i, it := range items {
				tuples[i] = Tuple{IDs: []int32{it.ID}}
			}
		}
		return &Result{Tuples: tuples, Stats: Stats{
			Method: Cascade, OutputTuples: int64(len(items)), Wall: time.Since(start),
		}}, nil
	}

	// The cascade is a checkpointed chain: step p-1 of the chain runs
	// round p's 2-way join and commits the resulting partial tuples to
	// the DFS (the materialisation §6.4 blames); the next step reads
	// them back as its input. A run killed by Config.FailJob leaves the
	// completed checkpoints behind, and a Resume run on the same FS
	// skips every completed round, reusing its recorded Stats.
	ch := exec.chain("cascade")
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
		in, out := newPartialStore(p), newPartialStore(p+1)
		codec := &cascadeCodec{in: in, slot: int8(newSlot), keyPos: keyPos}

		stepStart := time.Now()
		var jobEnd time.Time
		runStep := func(prev *dfs.View) ([][]byte, *mapreduce.Stats, error) {
			// The driver only opens the round's inputs — inside the step
			// closure, so a resumed run charges none of the reads — and
			// every map task reads its own split. The tuple side is the
			// previous step's checkpoint or, on the first step, the
			// first slot's relation as 1-member partials.
			tuples := prev
			if p == 1 {
				var err error
				if tuples, err = exec.fs.Open(inputFile(exec.rels[pl.order[0]].Name)); err != nil {
					return nil, nil, err
				}
			}
			items, err := exec.fs.Open(inputFile(exec.rels[newSlot].Name))
			if err != nil {
				return nil, nil, err
			}
			nt := tuples.Len()
			// The job input is the tuples then the items, in file order,
			// unsorted: the shuffle delivers a cell's values in (mapper
			// index, emit order), which is this input order, and each
			// reducer sorts its own cell.
			read := func(lo, hi int, yield func(cascadeVal) error) error {
				if thi := min(hi, nt); lo < thi {
					// The split's tuples fill one slab of the input store.
					slab, buf := in.alloc(thi - lo)
					v := cascadeVal{ID: -1, Slab: slab}
					next := func(key geom.Rect) error { // the record at the head of buf
						buf, v.Rect, v.ID = buf[in.stride:], key, v.ID+1
						return yield(v)
					}
					var err error
					if p == 1 {
						err = tuples.MBBs(lo, thi, func(m dfs.MBB) error {
							binary.LittleEndian.PutUint16(buf, 1)
							putMember(buf[2:], m.ID, mbbRect(m))
							return next(mbbRect(m))
						})
					} else {
						err = tuples.Records(lo, thi, func(rec []byte) error {
							if err := checkPartial(rec, p); err != nil {
								return err
							}
							copy(buf, rec)
							return next(partialRect(rec, keyPos))
						})
					}
					if err != nil {
						return err
					}
				}
				if ilo := max(lo, nt); ilo < hi {
					return items.MBBs(ilo-nt, hi-nt, func(m dfs.MBB) error {
						return yield(cascadeVal{Rect: mbbRect(m), ID: m.ID, Slab: itemSlab})
					})
				}
				return nil
			}

			job := &mapreduce.Job[cascadeVal, grid.CellID, cascadeVal, partialRef]{
				Config: exec.jobConfig(fmt.Sprintf("cascade-%d-%s", p, pl.q.Slots()[newSlot])),
				Map: func(v cascadeVal, emit func(grid.CellID, cascadeVal)) error {
					key := v.Rect
					if v.Slab != itemSlab && d > 0 {
						key = key.Enlarge(d)
					}
					exec.part.ForEachSplit(key, func(c grid.CellID) { emit(c, v) })
					return nil
				},
				Partition: mapreduce.IdentityPartition[grid.CellID],
				Reduce:    cascadeReduce(pl, exec.part, in, out, newSlot, edges, primary, discard, &counted, exec.cfg.Metrics),
				PairBytes: func(_ grid.CellID, v cascadeVal) int {
					if v.Slab != itemSlab {
						return 4 + in.stride
					}
					return 4 + itemRecordBytes
				},
				EncodePair: codec.encodePair,
				DecodePair: codec.decodePair,
				// An emitted partial travels as its checkpoint record.
				EncodeOutput: func(ref partialRef, buf []byte) []byte { return append(buf, out.rec(ref)...) },
				DecodeOutput: out.decode,
			}
			exec.tr.Observe(roundSpan, trace.KindPhase, "load-inputs", stepStart, time.Now())
			refs, st, err := job.RunSplits(nt+items.Len(), read)
			jobEnd = time.Now()
			// The emitted records are already in checkpoint layout: the
			// step's output file is views into the reducers' slabs.
			recs := make([][]byte, len(refs))
			for i, ref := range refs {
				recs[i] = out.rec(ref)
			}
			return recs, st, err
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
// the low 32 bits. A side is the cascade's tuples or its items, or one
// slot of a multi-way cell.
//
// The order comes from an ordered sort of the words themselves, no
// comparator: the high 32 bits are the value's offset from the
// smallest MinX of its side, shifted right until the largest fits.
// Where the shift dropped bits, values whose offsets agree above it
// form a run that is in position order, not MinX order; those runs are
// re-sorted on the exact (MinX, position), which leaves the
// permutation a comparator sort of the whole side produces.
func sortSweepWords(side, xs []uint64) {
	if len(side) < 2 {
		return
	}
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, i := range side {
		lo, hi = min(lo, xs[i]), max(hi, xs[i])
	}
	shift := max(bits.Len64(hi-lo), 32) - 32
	for k, i := range side {
		side[k] = (xs[i]-lo)>>shift<<32 | i
	}
	slices.Sort(side)
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

// cellScratch is cascadeReduce's per-cell working set, recycled across
// the cells of a round.
type cellScratch struct {
	xs    []uint64    // sweepOrder of every value's MinX, by arrival position
	order []uint64    // sortSweepWords: the tuples, then the items
	recs  [][]byte    // tuple records and
	keys  []geom.Rect // their key rectangles, in sweep order
	ids   []int32     // item ids and
	rects []geom.Rect // rectangles, in sweep order
	out   []byte      // emitted records, before they move to their slab
}

// cascadeReduce joins the partial tuples and new-slot items delivered
// to one cell with a forward plane sweep over the tuples' key
// rectangles and the items — the classic SJMR-style in-reducer join
// (§5). The partials a cell emits form one slab of out.
func cascadeReduce(pl *plan, part *grid.Partitioning, in, out *partialStore, newSlot int, edges []query.Edge, primary query.Edge, discard bool, counted *atomic.Int64, reg *metrics.Registry) func(grid.CellID, []cascadeVal, func(partialRef)) error {
	d := primary.Pred.Weight()
	scratch := sync.Pool{New: func() any { return new(cellScratch) }}
	return func(c grid.CellID, vals []cascadeVal, emit func(partialRef)) error {
		var local int64
		defer func() { observeCell(reg, int64(len(vals)), local) }()
		sc := scratch.Get().(*cellScratch)
		defer scratch.Put(sc)

		// Sweep order is (MinX, arrival position), tuples and items
		// apart. A cell's values arrive in job-input order, so this is
		// the order a stable MinX sort of each whole relation ahead of
		// the job would deliver, computed per cell on compact keys.
		sc.xs, sc.order = sc.xs[:0], sc.order[:0]
		for i := range vals {
			sc.xs = append(sc.xs, sweepOrder(vals[i].Rect.MinX()))
			if vals[i].Slab != itemSlab {
				sc.order = append(sc.order, uint64(i))
			}
		}
		nt := len(sc.order)
		if nt == 0 || nt == len(vals) {
			return nil
		}
		for i := range vals {
			if vals[i].Slab == itemSlab {
				sc.order = append(sc.order, uint64(i))
			}
		}
		sortSweepWords(sc.order[:nt], sc.xs)
		sortSweepWords(sc.order[nt:], sc.xs)
		sc.recs, sc.keys, sc.ids, sc.rects, sc.out = sc.recs[:0], sc.keys[:0], sc.ids[:0], sc.rects[:0], sc.out[:0]
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
			local++
			if discard {
				counted.Add(1)
				return true
			}
			// t's members then the new one, under the grown count.
			sc.out = binary.LittleEndian.AppendUint16(sc.out, uint16(out.m))
			sc.out = append(append(sc.out, t[2:]...), make([]byte, memberBytes)...)
			putMember(sc.out[len(sc.out)-memberBytes:], id, r)
			return true
		})
		if n := len(sc.out) / out.stride; n > 0 {
			slab, dst := out.alloc(n)
			copy(dst, sc.out)
			for i := 0; i < n; i++ {
				emit(partialRef{Slab: slab, Idx: int32(i)})
			}
		}
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
