package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/index"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/profile"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
	"mwsjoin/internal/sweep"
	"mwsjoin/internal/trace"
)

// layerMetrics lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them. A traced run reports all of them for
// every workload; a layer the workload does not reach reads 0 (or 1 for
// a ratio), which is the "no change expected here" half of each row in
// README.md's interaction table.
var layerMetrics = []struct{ name, unit string }{
	{"dataset.load_ms", "ms"},
	{"dfs.stage_ms", "ms"},
	{"dfs.scan_ms", "ms"},
	{"dfs.read_mb", "MB"},
	{"dfs.written_mb", "MB"},
	{"grid.split_ns_per_rect", "ns"},
	{"grid.replicate_ns_per_rect", "ns"},
	{"grid.build_adaptive_ms", "ms"},
	{"grid.copies_per_rect", "ratio"},
	{"grid.reducer_skew", "ratio"},
	{"spatial.rects_replicated", "ratio"},
	{"mapreduce.map_ms", "ms"},
	{"mapreduce.shuffle_ms", "ms"},
	{"mapreduce.reduce_ms", "ms"},
	{"mapreduce.pairs", "count"},
	{"mapreduce.intermediate_mb", "MB"},
	{"mapreduce.spilled_runs", "count"},
	{"mapreduce.spill_mb", "MB"},
	{"mapreduce.shuffle_probe_pairs_per_s", "1/s"},
	{"mapreduce.shuffle_probe_alloc_mb", "MB"},
	{"sweep.join_ms", "ms"},
	{"sweep.pairs_per_s", "1/s"},
	{"index.rtree_build_ms", "ms"},
	{"index.rtree_probe_ns", "ns"},
	{"index.grid_probe_ns", "ns"},
	{"spatial.mark_round_ms", "ms"},
	{"spatial.join_round_ms", "ms"},
	{"spatial.materialize_ms", "ms"},
	{"spatial.unattributed_ms", "ms"},
	{"spatial.plan_ms", "ms"},
	{"query.parse_us", "us"},
	{"cluster.w1_wall_ms", "ms"},
	{"cluster.overhead_ratio", "ratio"},
	{"cluster.net_mb", "MB"},
	{"cluster.net_runs", "count"},
	{"cluster.pack_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.exec_ms", "ms"},
	{"server.result_fetch_ms", "ms"},
	{"server.hit_ms", "ms"},
	{"server.miss_ms", "ms"},
	{"server.cache_hit_share", "ratio"},
	{"server.rejected", "count"},
	{"trace.overhead_share", "ratio"},
	{"e2e.wall_p25_ms", "ms"},
	{"e2e.wall_p90_ms", "ms"},
	{"host.ref_kernel_ms", "ms"},
	{"host.steal_share", "ratio"},
}

// importEngineSpans copies the engine tracer's span tree of one query
// under the harness span that called spatial.Execute.
func importEngineSpans(log *spanLog, parent, queryID int, epoch time.Time, tr *trace.Tracer) {
	if log == nil || tr == nil {
		return
	}
	ids := map[trace.SpanID]int{}
	for _, s := range tr.Spans() {
		if s.Dur < 0 {
			continue
		}
		layer := "mapreduce."
		if s.Kind == trace.KindRun || s.Kind == trace.KindRound {
			layer = "spatial."
		}
		p, ok := ids[s.Parent]
		if !ok {
			p = parent
		}
		ids[s.ID] = log.add(layer+string(s.Kind)+":"+s.Name, p, queryID, epoch.Add(s.Start), s.Dur)
	}
}

// statsLayers reads the count and wall metrics one execution's Stats
// carry. shuffleUS is the shuffle wall from the engine's spans (0 when
// the query ran untraced).
func statsLayers(st *spatial.Stats, wall time.Duration, inputs int, shuffleUS int64) map[string]float64 {
	m := map[string]float64{
		"dfs.read_mb":              float64(st.DFS.BytesRead) / 1e6,
		"dfs.written_mb":           float64(st.DFS.BytesWritten) / 1e6,
		"grid.copies_per_rect":     1,
		"spatial.rects_replicated": float64(st.RectanglesReplicated) / float64(inputs),
		"mapreduce.shuffle_ms":     float64(shuffleUS) / 1e3,
	}
	if st.RectanglesAfterReplication > 0 {
		m["grid.copies_per_rect"] = float64(st.RectanglesAfterReplication) / float64(inputs)
	}
	rounds := time.Duration(0)
	for i, r := range st.Rounds {
		m["mapreduce.map_ms"] += ms(r.MapWall)
		m["mapreduce.reduce_ms"] += ms(r.ReduceWall)
		m["mapreduce.pairs"] += float64(r.IntermediatePairs)
		m["mapreduce.intermediate_mb"] += float64(r.IntermediateBytes) / 1e6
		m["mapreduce.spilled_runs"] += float64(r.SpilledRuns)
		m["mapreduce.spill_mb"] += float64(r.SpillBytesWritten) / 1e6
		m["cluster.net_mb"] += float64(r.ShuffleNetworkBytes) / 1e6
		m["cluster.net_runs"] += float64(r.ShuffleNetworkRuns)
		m["grid.reducer_skew"] = max(m["grid.reducer_skew"], r.MaxMedianReducerSkew())
		if i == 0 && len(st.Rounds) > 1 && st.Method != spatial.Cascade {
			m["spatial.mark_round_ms"] += ms(r.TotalWall)
		} else {
			m["spatial.join_round_ms"] += ms(r.TotalWall)
		}
		rounds += r.TotalWall
	}
	m["spatial.unattributed_ms"] = ms(wall - rounds)
	return m
}

// medianLayers folds per-query layer maps into one map of medians.
func medianLayers(perQuery []map[string]float64, into map[string]float64) {
	cols := map[string][]float64{}
	for _, m := range perQuery {
		for k, v := range m {
			cols[k] = append(cols[k], v)
		}
	}
	for k, vs := range cols {
		into[k] = median(vs)
	}
}

func inputCount(rels []spatial.Relation) int {
	n := 0
	for _, rel := range rels {
		n += len(rel.Items)
	}
	return max(n, 1)
}

// tracedPass is the extra pass of a single-client workload that yields
// the per-layer metrics. Queries alternate untraced and traced, so
// trace.overhead_share compares like with like inside one process.
func tracedPass(w *workload, spec passSpec, log *spanLog, res *passResult) error {
	s, err := openSession(w, spec, log, res)
	if err != nil {
		return err
	}
	defer s.stop()
	want := spec.Oracle[w.query]
	inputs := inputCount(s.rels)
	deadline := time.Now().Add(time.Duration(spec.MaxSeconds * float64(time.Second)))
	L := map[string]float64{}
	res.Layers = L

	var plain, traced, overhead []float64
	var perQuery []map[string]float64
	var pairs int64
	for i := 0; i < max(spec.Ops, 2) && time.Now().Before(deadline); i++ {
		runtime.GC()
		var o outcome
		if i%2 == 0 {
			o = s.run(runOpts{})
			plain = append(plain, ms(o.wall))
		} else {
			opts := runOpts{log: log, queryID: i}
			if w.kind == "inproc" {
				opts.tracer = trace.New()
			}
			o = s.run(opts)
			traced = append(traced, ms(o.wall))
			if base := plain[len(plain)-1]; base > 0 {
				overhead = append(overhead, ms(o.wall)/base-1)
			}
			if o.err == nil {
				var shuffleUS int64
				if opts.tracer != nil {
					for _, r := range profile.Build(w.query, o.stats, opts.tracer.Spans()).Rounds {
						shuffleUS += r.Shuffle.WallUS
					}
				}
				perQuery = append(perQuery, statsLayers(o.stats, o.wall, inputs, shuffleUS))
				pairs = o.stats.IntermediatePairs()
			}
		}
		res.Attempted++
		res.WallMS = append(res.WallMS, ms(o.wall))
		s.check(o, want, res)
	}
	medianLayers(perQuery, L)
	// Each traced query is set against the untraced one just before it:
	// the median of paired ratios shrugs off a drifting host where the
	// ratio of two medians does not.
	L["trace.overhead_share"] = median(overhead)
	res.TracedWallMS = median(traced)
	L["e2e.wall_p25_ms"] = quantile(plain, 0.25)
	L["e2e.wall_p90_ms"] = quantile(plain, 0.90)
	L["cluster.overhead_ratio"] = 1

	switch w.kind {
	case "inproc":
		// What materialising the tuples costs: the same query counting
		// its output inside the reducers.
		var counted []float64
		for i := 0; i < 3; i++ {
			runtime.GC()
			o := s.run(runOpts{countOnly: true})
			if o.err != nil {
				return fmt.Errorf("count-only query: %w", o.err)
			}
			if o.stats.OutputTuples != want.N {
				res.fail("count-only query: %d tuples, oracle has %d", o.stats.OutputTuples, want.N)
			}
			counted = append(counted, ms(o.wall))
		}
		L["spatial.materialize_ms"] = median(plain) - median(counted)
	case "cluster":
		L["cluster.pack_ms"] = median(log.durationsMS("cluster.pack"))
		s.stop() // frees the cores for the reference runs; stopping twice is harmless
		if err := clusterLayers(w, s.rels, want, median(plain), res); err != nil {
			return err
		}
	}
	return kernelLayers(w.query, w.cfg, s.rels, pairs, log, L)
}

// clusterLayers measures what the cluster_w2 wall is compared with: the
// same relations and query on the in-process engine and through a
// one-worker cluster, each with two busy threads like the two-worker
// run.
func clusterLayers(w *workload, rels []spatial.Relation, want sig, w2WallMS float64, res *passResult) error {
	two := *w
	two.cfg.Parallelism = 2
	runs := func(run func() outcome) (float64, error) {
		var walls []float64
		for i := 0; i < 3; i++ {
			runtime.GC()
			o := run()
			if o.err != nil {
				return 0, o.err
			}
			if sigOf(o.tuples) != want {
				res.fail("cluster reference run disagrees with the oracle")
			}
			walls = append(walls, ms(o.wall))
		}
		return median(walls), nil
	}
	inproc, err := runs(func() outcome { return inprocRun(&two, rels, runOpts{}) })
	if err != nil {
		return fmt.Errorf("in-process reference: %w", err)
	}
	coord, stop, err := startCluster(1)
	if err != nil {
		return err
	}
	defer stop()
	w1, err := runs(func() outcome { return clusterRun(coord, &two, rels, runOpts{}) })
	if err != nil {
		return fmt.Errorf("one-worker reference: %w", err)
	}
	res.Layers["cluster.w1_wall_ms"] = w1
	res.Layers["cluster.overhead_ratio"] = w2WallMS / inproc
	return nil
}

// perSecond is n events over a wall in ms, 0 when the wall is too
// short to measure.
func perSecond(n int, wallMS float64) float64 {
	if wallMS <= 0 {
		return 0
	}
	return float64(n) / (wallMS / 1e3)
}

// timed runs fn under a span and returns its wall in ms.
func timed(log *spanLog, name string, fn func()) float64 {
	sp := log.start(name, 0, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	log.end(sp)
	return ms(d)
}

// kernelLayers replays each layer's kernel from outside the engine, on
// the workload's own first three relations and its own grid, so a
// change to one kernel shows here before it shows end to end.
func kernelLayers(text string, cfg spatial.Config, rels []spatial.Relation, pairs int64, log *spanLog, L map[string]float64) error {
	rels = rels[:3]
	inputs := float64(inputCount(rels))
	q, err := query.Parse(text)
	if err != nil {
		return err
	}
	part, err := spatial.BuildPartitioning(cfg.Scheme, rels, cfg.Reducers, cfg.SplitThreshold)
	if err != nil {
		return err
	}
	L["dataset.load_ms"] = 0
	for _, d := range log.durationsMS("dataset.load") {
		L["dataset.load_ms"] += d
	}

	// dfs: stage the relations as columnar MBB files, scan them back.
	fs := dfs.New(0)
	L["dfs.stage_ms"] = timed(log, "dfs.stage", func() {
		for s, rel := range rels {
			wr := fs.CreateMBB("input/" + rel.Name)
			for _, it := range rel.Items {
				wr.Append(dfs.MBB{Slot: int8(s), ID: it.ID, X: it.R.X, Y: it.R.Y, L: it.R.L, B: it.R.B})
			}
			if cerr := wr.Close(); cerr != nil {
				err = cerr
			}
		}
	})
	if err != nil {
		return fmt.Errorf("dfs stage: %w", err)
	}
	scanned := 0
	L["dfs.scan_ms"] = timed(log, "dfs.scan", func() {
		for _, rel := range rels {
			if serr := fs.ScanMBB("input/"+rel.Name, func(dfs.MBB) error { scanned++; return nil }); serr != nil {
				err = serr
			}
		}
	})
	if err != nil || scanned != int(inputs) {
		return fmt.Errorf("dfs scan: %d of %d records: %v", scanned, int(inputs), err)
	}

	// grid: the map phase's two routing functions and the adaptive build.
	cells := 0
	L["grid.split_ns_per_rect"] = 1e6 / inputs * timed(log, "grid.split", func() {
		for _, rel := range rels {
			for _, it := range rel.Items {
				part.ForEachSplit(it.R, func(grid.CellID) { cells++ })
			}
		}
	})
	bounds := make([]float64, len(rels))
	dmax := make([]float64, len(rels))
	for s, rel := range rels {
		dmax[s] = rel.MaxDiagonal()
	}
	if b, berr := q.ReplicationBounds(dmax); berr == nil {
		bounds = b
	}
	L["grid.replicate_ns_per_rect"] = 1e6 / inputs * timed(log, "grid.replicate", func() {
		for s, rel := range rels {
			for _, it := range rel.Items {
				part.ForEachReplicateF2(it.R, bounds[s], cfg.LimitMetric, func(grid.CellID) { cells++ })
			}
		}
	})
	L["grid.build_adaptive_ms"] = timed(log, "grid.build_adaptive", func() {
		_, err = spatial.AdaptivePartitioning(rels, cfg.Reducers, cfg.SplitThreshold)
	})
	if err != nil {
		return fmt.Errorf("adaptive partitioning: %w", err)
	}

	// mapreduce: the shuffle alone — identity map, counting reduce — at
	// the workload's own pair count and reducer count.
	n := int(max(pairs, 1))
	input := make([]int32, n)
	for i := range input {
		input[i] = int32(i)
	}
	nc := part.NumCells()
	probe := &mapreduce.Job[int32, grid.CellID, int32, int64]{
		Config: mapreduce.Config{Name: "shuffle-probe", NumReducers: nc, NumMappers: 8, Parallelism: 2},
		Map: func(in int32, emit func(grid.CellID, int32)) error {
			emit(grid.CellID(int(in)%nc), in)
			return nil
		},
		Partition: mapreduce.IdentityPartition[grid.CellID],
		Reduce:    func(_ grid.CellID, vs []int32, emit func(int64)) error { emit(int64(len(vs))); return nil },
		PairBytes: func(grid.CellID, int32) int { return 8 },
	}
	runtime.GC()
	alloc0 := allocMB()
	probeMS := timed(log, "mapreduce.shuffle_probe", func() { _, _, err = probe.Run(input) })
	if err != nil {
		return fmt.Errorf("shuffle probe: %w", err)
	}
	L["mapreduce.shuffle_probe_alloc_mb"] = allocMB() - alloc0
	L["mapreduce.shuffle_probe_pairs_per_s"] = perSecond(n, probeMS)

	// sweep: the cascade reducer's kernel, R1 × R2 per cell.
	bucket := func(rel spatial.Relation) [][]geom.Rect {
		out := make([][]geom.Rect, nc)
		for _, it := range rel.Items {
			part.ForEachSplit(it.R, func(c grid.CellID) { out[c] = append(out[c], it.R) })
		}
		for _, rs := range out {
			slices.SortFunc(rs, func(a, b geom.Rect) int { return cmp.Compare(a.MinX(), b.MinX()) })
		}
		return out
	}
	as, bs := bucket(rels[0]), bucket(rels[1])
	joined := 0
	L["sweep.join_ms"] = timed(log, "sweep.join", func() {
		for c := range as {
			sweep.JoinSorted(as[c], bs[c], 0, func(int, int) bool { joined++; return true })
		}
	})
	L["sweep.pairs_per_s"] = perSecond(joined, L["sweep.join_ms"])

	// index: build over R2 and probe with R1 on the four densest cells,
	// where the reducers escalate from the sweep to an index.
	order := make([]int, nc)
	for c := range order {
		order[c] = c
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(bs[b]) - len(bs[a]) })
	dense := order[:min(4, nc)]
	probes, hits := 0, 0
	var trees []*index.RTree
	L["index.rtree_build_ms"] = timed(log, "index.rtree_build", func() {
		for _, c := range dense {
			trees = append(trees, index.NewRTree(bs[c]))
		}
	})
	rtreeMS := timed(log, "index.rtree_probe", func() {
		for i, c := range dense {
			for _, r := range as[c] {
				probes++
				trees[i].Probe(r, 0, func(int) bool { hits++; return true })
			}
		}
	})
	grids := make([]*index.Grid, len(dense))
	for i, c := range dense {
		grids[i] = index.NewGrid(bs[c])
	}
	gridMS := timed(log, "index.grid_probe", func() {
		for i, c := range dense {
			for _, r := range as[c] {
				grids[i].Probe(r, 0, func(int) bool { hits++; return true })
			}
		}
	})
	L["index.rtree_probe_ns"] = rtreeMS * 1e6 / float64(max(probes, 1))
	L["index.grid_probe_ns"] = gridMS * 1e6 / float64(max(probes, 1))

	// planner and parser, as an "auto" submission pays them.
	L["spatial.plan_ms"] = timed(log, "spatial.plan", func() {
		_, err = spatial.PlanQuery(q, rels, spatial.Config{}, spatial.PlannerOptions{})
	})
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	const parses = 2000
	L["query.parse_us"] = 1e3 / parses * timed(log, "query.parse_x2000", func() {
		for i := 0; i < parses; i++ {
			if _, perr := query.Parse(text); perr != nil {
				err = perr
			}
		}
	})
	return err
}

// servedLayers adds the engine-side numbers of the served mix: the
// traced jobs' Stats and shuffle walls as the server reported them, and
// the kernels on the uniform relations the first hot query joins.
func servedLayers(rels []spatial.Relation, jobs []servedJob, log *spanLog, L map[string]float64) error {
	var perQuery []map[string]float64
	var pairs int64
	for _, j := range jobs {
		if !j.traced {
			continue
		}
		perQuery = append(perQuery, statsLayers(j.stats, j.exec, inputCount(rels)/2, j.shuffleUS))
		pairs = max(pairs, j.stats.IntermediatePairs())
	}
	medianLayers(perQuery, L)
	L["cluster.overhead_ratio"] = 1
	return kernelLayers(servedHot[0].Text, spatial.Config{Reducers: 64}, rels, pairs, log, L)
}
