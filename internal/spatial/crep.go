package spatial

import (
	"fmt"
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
func allReplicate(pl *plan, exec *executor) (*Result, error) {
	start := time.Now()

	ch := exec.chain("all-replicate")
	roundSpan := exec.beginRound("join")
	var counted atomic.Int64
	var tuples []Tuple
	var inputCount int64
	st, err := ch.FinalStep("join", func(_ *dfs.View) (*mapreduce.Stats, error) {
		n, read, err := exec.openRelations(nil)
		if err != nil {
			return nil, err
		}
		inputCount = int64(n)
		job := &mapreduce.Job[tagged, grid.CellID, tagged, Tuple]{
			Config: exec.jobConfig("all-replicate"),
			Map: func(it tagged, emit func(grid.CellID, tagged)) error {
				exec.part.ForEachFourthQuadrant(it.Rect, func(c grid.CellID) { emit(c, it) })
				return nil
			},
			Reduce:       joinReduce(pl, exec.part, exec.cfg.CountOnly, &counted),
			PairBytes:    taggedPairBytes,
			EncodePair:   encodeCellTagged,
			DecodePair:   cellTaggedDecoder(pl.m),
			EncodeOutput: encodeTupleOutput,
			DecodeOutput: tupleOutputDecoder(pl.m),
		}
		out, st, err := job.RunSplits(n, read)
		tuples = out
		return st, err
	})
	if err != nil {
		return nil, err
	}
	exec.endRound(roundSpan)
	cs := ch.Stats()
	res := &Result{Tuples: tuples}
	res.Stats = Stats{
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
		OutputTuples:               outputCount(exec.cfg.CountOnly, &counted, len(tuples)),
		Wall:                       time.Since(start),
	}
	return res, nil
}

// outputCount picks the tuple count: the committed reducer outputs
// when materialising (discarded retry attempts of injected reduce
// faults re-run the counting closure, so the atomic may overshoot),
// the atomic tally when CountOnly suppressed materialisation.
func outputCount(countOnly bool, counted *atomic.Int64, materialised int) int64 {
	if countOnly {
		return counted.Load()
	}
	return int64(materialised)
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
func controlledReplicate(pl *plan, exec *executor, limit bool) (*Result, error) {
	start := time.Now()

	dmax := make([]float64, pl.m)
	for s, st := range exec.stats {
		dmax[s] = st.maxDiag
	}
	band, err := markBand(pl.q, dmax)
	if err != nil {
		return nil, err
	}
	method := ControlledReplicate
	var bounds []float64
	if limit {
		method = ControlledReplicateLimit
		bounds, err = pl.q.ReplicationBounds(dmax)
		if err != nil {
			return nil, err
		}
	}

	ch := exec.chain(method.String())

	// ---- round one: split the boundary band, decide replication ----
	markSpan := exec.beginRound("mark")
	st1, err := ch.Step("mark", func(_ *dfs.View) ([][]byte, *mapreduce.Stats, error) {
		n, read, err := exec.openRelations(nil)
		if err != nil {
			return nil, nil, err
		}
		round1 := &mapreduce.Job[tagged, grid.CellID, tagged, tagged]{
			Config: exec.jobConfig(fmt.Sprintf("%s-mark", method)),
			Map: func(it tagged, emit func(grid.CellID, tagged)) error {
				// A rectangle outside the band can neither be marked nor
				// serve in a witness, so no reducer needs it.
				if inMarkBand(exec.part, it.Rect, band[it.Slot]) {
					exec.part.ForEachSplit(it.Rect, func(c grid.CellID) { emit(c, it) })
				}
				return nil
			},
			Reduce: func(c grid.CellID, items []tagged, emit func(tagged)) error {
				cd := newCellData(pl.m, items)
				defer cd.release()
				// markCell marks only rectangles starting in c, so each
				// marked rectangle is output once, by its start cell.
				for s, marked := range markCell(pl, exec.part, c, cd) {
					for j, ok := range marked {
						if ok {
							emit(tagged{Slot: int8(s), ID: cd.ids[s][j], Rect: cd.rects[s][j], Marked: true})
						}
					}
				}
				return nil
			},
			PairBytes:    taggedPairBytes,
			EncodePair:   encodeCellTagged,
			DecodePair:   cellTaggedDecoder(pl.m),
			EncodeOutput: encodeItem,
			DecodeOutput: decodeItem,
		}
		out, st, err := round1.RunSplits(n, read)
		if err != nil {
			return nil, nil, err
		}
		return itemRecords(out), st, nil
	})
	if err != nil {
		return nil, err
	}
	exec.endRound(markSpan)

	// ---- round two: replicate marked, project the rest, join ----
	joinSpan := exec.beginRound("join")
	var counted atomic.Int64
	var tuples []Tuple
	var markedCount, unmarkedCount int64
	st2, err := ch.FinalStep("join", func(in *dfs.View) (*mapreduce.Stats, error) {
		// The checkpoint holds the marked records; a relation record is
		// marked iff the checkpoint holds it, whole — slot, ID and
		// rectangle — so repeated records and IDs that are not indices
		// resolve exactly. Few records are marked: one bit per ID mod
		// 2¹⁶ turns most away before the map hashes a rectangle.
		marks := make(map[tagged]bool, in.Len())
		var maybe [1 << 10]uint64
		err := in.MBBs(0, in.Len(), func(m dfs.MBB) error {
			m.Marked = false // the key is the relation record
			marks[mbbItem(m)] = true
			maybe[uint16(m.ID)>>6] |= 1 << (m.ID & 63)
			return nil
		})
		if err != nil {
			return nil, err
		}
		mark := func(it tagged) bool {
			return maybe[uint16(it.ID)>>6]&(1<<(it.ID&63)) != 0 && marks[it]
		}
		n, read, err := exec.openRelations(mark)
		if err != nil {
			return nil, err
		}
		// The marked count is taken in a pass of its own: the map tasks
		// read only their splits, once per attempt, and on a cluster only
		// the worker's own.
		err = read(0, n, func(it tagged) error {
			if it.Marked {
				markedCount++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		unmarkedCount = int64(n) - markedCount
		round2 := &mapreduce.Job[tagged, grid.CellID, tagged, Tuple]{
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
			Reduce:       joinReduce(pl, exec.part, exec.cfg.CountOnly, &counted),
			PairBytes:    taggedPairBytes,
			EncodePair:   encodeCellTagged,
			DecodePair:   cellTaggedDecoder(pl.m),
			EncodeOutput: encodeTupleOutput,
			DecodeOutput: tupleOutputDecoder(pl.m),
		}
		out, st, err := round2.RunSplits(n, read)
		tuples = out
		return st, err
	})
	if err != nil {
		return nil, err
	}
	exec.endRound(joinSpan)

	cs := ch.Stats()
	res := &Result{Tuples: tuples}
	res.Stats = Stats{
		Method: method,
		Rounds: []*mapreduce.Stats{st1, st2},
		Chain:  &cs,
		// Both replication counters derive from exactly-once quantities
		// — the relation records the mark checkpoint names and the join
		// job's committed IntermediatePairs — rather than atomics bumped
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
		OutputTuples:      outputCount(exec.cfg.CountOnly, &counted, len(tuples)),
		Wall:              time.Since(start),
	}
	return res, nil
}

// joinReduce builds the reducer shared by All-Replicate and C-Rep round
// two: group the received rectangles by slot, enumerate matching
// assignments, and emit exactly the tuples whose §6.2
// duplicate-avoidance point falls in this reducer's cell. Every emitted
// tuple also bumps counted; with countOnly the tuple itself is dropped.
func joinReduce(pl *plan, part *grid.Partitioning, countOnly bool, counted *atomic.Int64) func(grid.CellID, []tagged, func(Tuple)) error {
	return func(c grid.CellID, items []tagged, emit func(Tuple)) error {
		cd := newCellData(pl.m, items)
		defer cd.release()
		// The slab lives for this call: an attempt the engine discards
		// and retries leaves its chunks behind as garbage.
		var slab tupleSlab
		var local int64
		pl.matchInCell(cd, part, c, func(assign []int) {
			local++
			if !countOnly {
				emit(slab.tupleOf(cd, assign))
			}
		})
		counted.Add(local)
		return nil
	}
}

// taggedPairBytes sizes an intermediate (cell, item) pair: 4 bytes of
// key plus the 38-byte item record.
func taggedPairBytes(_ grid.CellID, _ tagged) int { return 4 + dfs.MBBRecordBytes }
