package spatial

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/mapreduce"
)

// allReplicate runs the naive one-round All-Replicate baseline (§6.1):
// every rectangle of every relation is replicated to all reducers in
// its 4th quadrant (replication function f1), and each reducer computes
// the multi-way join on what it received, de-duplicated with the §6.2
// point rule.
//
// The single job runs as a one-step chain so Config.FailJob addresses
// it uniformly with the multi-job methods (job index 0); with nothing
// checkpointed before it, a resume is a full re-run.
func allReplicate(pl *plan, exec *executor) (Rows, Stats, error) {
	start := time.Now()

	ch, err := exec.chain("all-replicate")
	if err != nil {
		return Rows{}, Stats{}, err
	}
	roundSpan := exec.beginRound("join")
	var counted atomic.Int64
	rows := Rows{Arity: pl.m}
	var inputCount int64
	st, err := ch.FinalStep("join", func(_ *dfs.View) (*mapreduce.Stats, error) {
		in, read, err := exec.openRelations(nil)
		if err != nil {
			return nil, err
		}
		inputCount = int64(in.n)
		job := &mapreduce.Job[tagged, grid.CellID, tagged, int32]{
			Config: exec.jobConfig("all-replicate"),
			Map: func(it tagged, emit func(grid.CellID, tagged)) error {
				exec.part.ForEachFourthQuadrant(it.Rect, func(c grid.CellID) { emit(c, it) })
				return nil
			},
			Reduce:    joinReduce(pl, exec.part, exec.pool, exec.cfg.CountOnly, &counted),
			PairBytes: taggedPairBytes,
			Values:    itemCodec(pl.m),
			Outputs:   idCodec,
		}
		return runJoinJob(job, in, read, &rows)
	})
	if err != nil {
		return Rows{}, Stats{}, err
	}
	exec.endRound(roundSpan)
	cs := ch.Stats()
	return rows, Stats{
		Method: AllReplicate,
		Rounds: []*mapreduce.Stats{st},
		Chain:  &cs,
		// Every input rectangle is replicated, and every emitted pair is
		// one copy: both counters derive from exactly-once quantities
		// (input size, committed IntermediatePairs) instead of atomics
		// bumped inside the Map closure, which over-count when retried
		// attempts re-run the mapper.
		RectanglesReplicated:       inputCount,
		RectanglesAfterReplication: st.IntermediatePairs,
		ReplicationCopies:          st.IntermediatePairs,
		OutputTuples:               outputCount(exec.cfg.CountOnly, &counted, rows),
		Wall:                       time.Since(start),
	}, nil
}

// runJoinJob runs a join round whose reducers emit each tuple as its
// IDs (joinReduce) and leaves the gathered slab in rows: the job's
// output is the slab, so its Stats count tuples, not IDs.
func runJoinJob(job *mapreduce.Job[tagged, grid.CellID, tagged, int32], in *jobInput, read func(lo, hi int, yield func(tagged) error) error, rows *Rows) (*mapreduce.Stats, error) {
	ids, _, st, err := job.RunBlocks(in.n, in.cut, read)
	if err != nil {
		return nil, err
	}
	if len(ids)%rows.Arity != 0 {
		return nil, fmt.Errorf("spatial: job %q gathered %d ids, not whole %d-id tuples", job.Config.Name, len(ids), rows.Arity)
	}
	rows.IDs = ids
	st.ReduceOutputRecords = int64(rows.Len())
	return st, nil
}

// outputCount picks the tuple count: the committed reducer outputs
// when materialising (discarded retry attempts of injected reduce
// faults re-run the counting closure, so the atomic may overshoot),
// the atomic tally when CountOnly suppressed materialisation.
func outputCount(countOnly bool, counted *atomic.Int64, materialised Rows) int64 {
	if countOnly {
		return counted.Load()
	}
	return int64(materialised.Len())
}

// controlledReplicate runs the paper's Controlled-Replicate framework
// (§7) and, when limit is true, Controlled-Replicate-in-Limit (§7.9):
// round one splits the rectangles near a cell boundary and marks those
// satisfying conditions C1–C4; round two replicates only the marked
// rectangles (f1, or f2 bounded by the per-relation radius for
// C-Rep-L), projects the rest, and joins.
//
// The two rounds run as a chain: the marked rectangles are checkpointed
// on the DFS (the small read/write cost C-Rep pays that §7.1 contrasts
// with Cascade's), and the join round reads them back beside the staged
// relations. A run killed between the rounds resumes by re-reading the
// mark checkpoint and the relations.
func controlledReplicate(pl *plan, exec *executor, limit bool) (Rows, Stats, error) {
	start := time.Now()

	dmax := make([]float64, pl.m)
	for s, st := range exec.stats {
		dmax[s] = st.maxDiag
	}
	band, err := markBand(pl.q, dmax)
	if err != nil {
		return Rows{}, Stats{}, err
	}
	method := ControlledReplicate
	var bounds []float64
	if limit {
		method = ControlledReplicateLimit
		bounds, err = pl.q.ReplicationBounds(dmax)
		if err != nil {
			return Rows{}, Stats{}, err
		}
	}

	ch, err := exec.chain(method.String())
	if err != nil {
		return Rows{}, Stats{}, err
	}

	// ---- round one: split the boundary band, decide replication ----
	markSpan := exec.beginRound("mark")
	st1, err := ch.Step("mark", func(_ *dfs.View) (dfs.Segments, *mapreduce.Stats, error) {
		in, read, err := exec.openRelations(nil)
		if err != nil {
			return dfs.Segments{}, nil, err
		}
		// The outputs are the checkpoint, which the FS holds until it
		// closes: they are drawn from the execution's pool, a worker's or
		// the process's, and go back to it then.
		slabs := mapreduce.DistConfig{NumWorkers: 1}
		if d := exec.cfg.Dist; d != nil {
			slabs = *d
		}
		slabs.Pool = exec.pool
		cfg := exec.jobConfig(fmt.Sprintf("%s-mark", method))
		cfg.Dist = &slabs
		round1 := &mapreduce.Job[tagged, grid.CellID, tagged, itemRecord]{
			Config: cfg,
			Map: func(it tagged, emit func(grid.CellID, tagged)) error {
				// A rectangle outside the band can neither be marked nor
				// serve in a witness, so no reducer needs it.
				if inMarkBand(exec.part, it.Rect, band[it.Slot]) {
					exec.part.ForEachSplit(it.Rect, func(c grid.CellID) { emit(c, it) })
				}
				return nil
			},
			Reduce: func(c grid.CellID, items []tagged, emit func(itemRecord)) error {
				cd := takeCellData(exec.pool, pl.m, items)
				defer cd.release(exec.pool)
				// markCell marks only rectangles starting in c, so each
				// marked rectangle is output once, by its start cell.
				for s, marked := range markCell(pl, exec.part, c, cd) {
					for j, ok := range marked {
						if ok {
							var rec itemRecord
							appendItem(rec[:0], tagged{Slot: int8(s), ID: cd.ids[s][j], Rect: cd.rects[s][j], Marked: true})
							emit(rec)
						}
					}
				}
				return nil
			},
			PairBytes: taggedPairBytes,
			Values:    itemCodec(pl.m),
			Outputs:   itemRecordCodec(pl.m),
		}
		out, _, st, err := round1.RunBlocks(in.n, in.cut, read)
		if err != nil {
			return dfs.Segments{}, nil, err
		}
		// The outputs are item records back to back, the checkpoint as
		// it stands.
		exec.fs.OnClose(func() { mapreduce.PutSlab(exec.pool, out) })
		return dfs.Segments{Stride: dfs.MBBRecordBytes, Segs: [][]byte{recordBytes(out)}}, st, nil
	})
	if err != nil {
		return Rows{}, Stats{}, err
	}
	exec.endRound(markSpan)

	// ---- round two: replicate marked, project the rest, join ----
	joinSpan := exec.beginRound("join")
	var counted atomic.Int64
	rows := Rows{Arity: pl.m}
	var markedCount, unmarkedCount int64
	st2, err := ch.FinalStep("join", func(in *dfs.View) (*mapreduce.Stats, error) {
		// The checkpoint holds the marked records; a relation record is
		// marked iff the checkpoint holds it (markSet.has).
		ms := mapreduce.GetScratch[markSet](exec.pool, in.Len())
		defer mapreduce.PutScratch(exec.pool, ms)
		if err := ms.read(in); err != nil {
			return nil, err
		}
		input, read, err := exec.openRelations(ms.has)
		if err != nil {
			return nil, err
		}
		// Round one emits each marked record once, from its start cell,
		// so the checkpoint holds exactly the relation records the map
		// tasks will mark.
		markedCount = int64(in.Len())
		unmarkedCount = int64(input.n) - markedCount
		round2 := &mapreduce.Job[tagged, grid.CellID, tagged, int32]{
			Config: exec.jobConfig(fmt.Sprintf("%s-join", method)),
			Map: func(it tagged, emit func(grid.CellID, tagged)) error {
				if !it.Marked {
					emit(exec.part.Project(it.Rect), it)
					return nil
				}
				if limit {
					exec.part.ForEachReplicateF2(it.Rect, bounds[it.Slot], exec.metric, func(c grid.CellID) { emit(c, it) })
				} else {
					exec.part.ForEachFourthQuadrant(it.Rect, func(c grid.CellID) { emit(c, it) })
				}
				return nil
			},
			Reduce:    joinReduce(pl, exec.part, exec.pool, exec.cfg.CountOnly, &counted),
			PairBytes: taggedPairBytes,
			Values:    itemCodec(pl.m),
			Outputs:   idCodec,
		}
		return runJoinJob(round2, input, read, &rows)
	})
	if err != nil {
		return Rows{}, Stats{}, err
	}
	exec.endRound(joinSpan)

	cs := ch.Stats()
	return rows, Stats{
		Method: method,
		Rounds: []*mapreduce.Stats{st1, st2},
		Chain:  &cs,
		// Both replication counters derive from exactly-once quantities
		// — the mark checkpoint's record count and the join job's
		// committed IntermediatePairs — rather than atomics bumped
		// in the Map closure, which over-count when retried attempts
		// re-run the mapper.
		RectanglesReplicated: markedCount,
		// The paper's parenthesised §7.8.3 metric counts every
		// rectangle copy communicated to the join round's reducers —
		// projections of unmarked rectangles included (the published
		// numbers only reconcile under that reading: e.g. Table 2,
		// nI=1 reports 3.9M for 3M input rectangles of which 0.05M
		// were marked).
		RectanglesAfterReplication: st2.IntermediatePairs,
		// The stricter breakdown excludes projections: each unmarked
		// rectangle contributes exactly one projection pair, so the
		// replicate-produced copies are the remainder.
		ReplicationCopies: st2.IntermediatePairs - unmarkedCount,
		OutputTuples:      outputCount(exec.cfg.CountOnly, &counted, rows),
		Wall:              time.Since(start),
	}, nil
}

// joinReduce builds the reducer shared by All-Replicate and C-Rep round
// two: group the received rectangles by slot, enumerate matching
// assignments, and emit exactly the tuples whose §6.2
// duplicate-avoidance point falls in this reducer's cell, each as its
// IDs in slot order, one output per ID, into the job's pooled output
// runs. Every emitted tuple also bumps counted; with countOnly the
// tuple itself is dropped.
func joinReduce(pl *plan, part *grid.Partitioning, pool *mapreduce.BufferPool, countOnly bool, counted *atomic.Int64) func(grid.CellID, []tagged, func(int32)) error {
	return func(c grid.CellID, items []tagged, emit func(int32)) error {
		cd := takeCellData(pool, pl.m, items)
		defer cd.release(pool)
		var local int64
		pl.matchInCell(cd, part, c, func(assign []int) {
			local++
			if !countOnly {
				for s, j := range assign {
					emit(cd.ids[s][j])
				}
			}
		})
		counted.Add(local)
		return nil
	}
}

// markSet is the join round's marked set: the mark checkpoint's
// records in buckets of 16 IDs mod 2¹⁶, behind one bit per ID mod 2¹⁶.
// Few records are marked, so the bit turns most relation records away,
// and a bucket holds a record or two. It is a working set of the
// execution's pool.
type markSet struct {
	maybe [1 << 10]uint64
	start [1<<12 + 1]int32 // bucket b is recs[start[b]:start[b+1]]
	recs  []tagged
}

func markBucket(id int32) int { return int(uint16(id) >> 4) }

func (ms *markSet) Room() int    { return cap(ms.recs) }
func (ms *markSet) Bytes() int64 { return 24<<10 + 48*int64(cap(ms.recs)) }

// read fills ms with the records of chk, the mark checkpoint.
func (ms *markSet) read(chk *dfs.View) error {
	ms.maybe, ms.recs = [1 << 10]uint64{}, reserve(ms.recs, chk.Len())
	err := chk.MBBs(0, chk.Len(), func(m dfs.MBB) error {
		ms.recs = append(ms.recs, mbbItem(m))
		ms.maybe[uint16(m.ID)>>6] |= 1 << (m.ID & 63)
		return nil
	})
	slices.SortFunc(ms.recs, func(a, b tagged) int { return cmp.Compare(markBucket(a.ID), markBucket(b.ID)) })
	clear(ms.start[:])
	for _, r := range ms.recs {
		ms.start[markBucket(r.ID)+1]++
	}
	for b := 1; b < len(ms.start); b++ {
		ms.start[b] += ms.start[b-1]
	}
	return err
}

// has reports whether the checkpoint holds it whole — slot, ID and
// rectangle — so repeated records and IDs that are not indices resolve
// exactly.
func (ms *markSet) has(it tagged) bool {
	if ms.maybe[uint16(it.ID)>>6]&(1<<(it.ID&63)) == 0 {
		return false
	}
	b := markBucket(it.ID)
	for _, r := range ms.recs[ms.start[b]:ms.start[b+1]] {
		if r.ID == it.ID && r.Slot == it.Slot && r.Rect == it.Rect {
			return true
		}
	}
	return false
}

// taggedPairBytes sizes an intermediate (cell, item) pair: 4 bytes of
// key plus the 38-byte item record.
func taggedPairBytes(_ grid.CellID, _ tagged) int { return 4 + dfs.MBBRecordBytes }
