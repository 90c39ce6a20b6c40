package main

import (
	"fmt"
	"runtime"
	"time"

	"mwsjoin/internal/cluster"
	"mwsjoin/internal/dataset"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
	"mwsjoin/internal/trace"
)

// passSpec is everything one pass needs. The parent writes it next to
// the generated CSVs; a fresh child process per pass reads it, so every
// pass starts from a cold heap and its peak RSS is its own.
type passSpec struct {
	Workload  string
	Relations []string
	DataDir   string
	// Ops is the fixed number of timed operations; MaxSeconds stops a
	// pass early on a host so slow that Ops would overrun the harness's
	// time cap (the pass then reports what it measured).
	Ops        int
	MaxSeconds float64
	Seed       uint64
	// Oracle maps a query text (or a served miss family) to the
	// brute-force answer; MissBase is the family range base.
	Oracle   map[string]sig
	MissBase float64
	// TraceFile, when set, makes this the traced pass: spans are
	// recorded, per-layer metrics computed, and the spans written here.
	TraceFile string
}

// passResult is what one pass measured.
type passResult struct {
	SetupS      float64
	WallMS      []float64 // one sample per timed operation
	Attempted   int
	Failed      int
	Failures    []string // first few failure messages
	AllocMB     float64  // TotalAlloc delta over the timed operations
	CommMB      float64  // paid bytes over the timed operations
	PeakRSSMB   float64
	RefKernelMS []float64 // before and after the pass
	// Layers and TracedWallMS are the traced pass's per-layer metrics
	// and the wall of the queries they were taken from.
	Layers       map[string]float64 `json:",omitempty"`
	TracedWallMS float64            `json:",omitempty"`
}

func (r *passResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// outcome is one finished query on a single-client workload.
type outcome struct {
	wall     time.Duration
	tuples   []spatial.Tuple
	stats    *spatial.Stats
	attempts int    // cluster only
	hash     string // cluster only
	err      error
}

// commBytes is the paper's figure of merit, paid bytes: what the
// shuffles routed, what the DFS read and wrote, and what crossed the
// mesh.
func commBytes(st *spatial.Stats) int64 {
	n := st.DFS.BytesRead + st.DFS.BytesWritten
	for _, r := range st.Rounds {
		n += r.IntermediateBytes + r.ShuffleNetworkBytes
	}
	return n
}

// session is a set-up single-client workload: relations loaded, runtime
// started, warmed up.
type session struct {
	w    *workload
	rels []spatial.Relation
	// run executes the workload's query once: query text in, every
	// tuple in the caller's hands.
	run     func(runOpts) outcome
	stop    func()
	rrHash  string
	queries int
}

// runOpts are the per-query switches of the traced pass; the zero value
// is a plain untraced, materialising query.
type runOpts struct {
	log       *spanLog // harness spans around the layer calls
	queryID   int
	tracer    *trace.Tracer // engine spans, in-process only
	countOnly bool
}

func loadRelations(dir string, names []string, log *spanLog, parent int) ([]spatial.Relation, error) {
	rels := make([]spatial.Relation, len(names))
	for i, name := range names {
		sp := log.start("dataset.load", parent, 0)
		rects, err := dataset.ReadFile(csvPath(dir, name))
		log.end(sp)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", name, err)
		}
		rels[i] = spatial.NewRelation(name, rects)
	}
	return rels, nil
}

// startCluster brings up a coordinator and n workers in this process,
// talking over real loopback TCP.
func startCluster(n int) (*cluster.Coordinator, func(), error) {
	coord, err := cluster.StartCoordinator(cluster.CoordinatorConfig{HeartbeatTimeout: 10 * time.Second})
	if err != nil {
		return nil, nil, err
	}
	var workers []*cluster.Worker
	stop := func() {
		for _, w := range workers {
			w.Close()
		}
		coord.Close()
	}
	for i := 0; i < n; i++ {
		w, err := cluster.StartWorker(cluster.WorkerConfig{Coordinator: coord.Addr(), Name: fmt.Sprintf("w%d", i)})
		if err != nil {
			stop()
			return nil, nil, err
		}
		workers = append(workers, w)
	}
	if err := coord.WaitForWorkers(n, 10*time.Second); err != nil {
		stop()
		return nil, nil, err
	}
	return coord, stop, nil
}

func clusterRun(coord *cluster.Coordinator, w *workload, rels []spatial.Relation, o runOpts) outcome {
	start := time.Now()
	root := o.log.start("query", 0, o.queryID)
	sp := o.log.start("cluster.pack", root, o.queryID)
	spec := cluster.SpecFromConfig(w.method, w.query, rels, w.cfg)
	o.log.end(sp)
	sp = o.log.start("cluster.run", root, o.queryID)
	rr, err := coord.Run(spec)
	o.log.end(sp)
	o.log.end(root)
	out := outcome{wall: time.Since(start), err: err}
	if err == nil {
		out.tuples, out.stats, out.attempts, out.hash = rr.Tuples, &rr.Stats, rr.Attempts, rr.Hash
	}
	return out
}

func inprocRun(w *workload, rels []spatial.Relation, o runOpts) outcome {
	start := time.Now()
	root := o.log.start("query", 0, o.queryID)
	sp := o.log.start("query.parse", root, o.queryID)
	q, err := query.Parse(w.query)
	o.log.end(sp)
	if err != nil {
		return outcome{err: err}
	}
	cfg := w.cfg
	cfg.Tracer, cfg.CountOnly = o.tracer, o.countOnly
	exec := o.log.start("spatial.execute", root, o.queryID)
	execStart := time.Now()
	res, err := spatial.Execute(w.method, q, rels, cfg)
	o.log.end(exec)
	o.log.end(root)
	out := outcome{wall: time.Since(start), err: err}
	if err == nil {
		out.tuples, out.stats = res.Tuples, &res.Stats
		importEngineSpans(o.log, exec, o.queryID, execStart, o.tracer)
	}
	return out
}

// warmups is the number of warm-up queries of a set-up. Four make every
// workload's set-up about a second of real, repeatable work: a shorter
// one moved by 5 % between identical runs.
const warmups = 4

// openSession is the set-up a user of the system pays before the first
// answer: read the CSVs, start the runtime, run the warm-up queries.
func openSession(w *workload, spec passSpec, log *spanLog, res *passResult) (*session, error) {
	start := time.Now()
	sp := log.start("setup", 0, 0)
	defer log.end(sp)
	rels, err := loadRelations(spec.DataDir, spec.Relations, log, sp)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, rels: rels, stop: func() {}}
	switch w.kind {
	case "inproc":
		s.run = func(o runOpts) outcome { return inprocRun(w, rels, o) }
	case "cluster":
		coord, stop, err := startCluster(2)
		if err != nil {
			return nil, err
		}
		s.stop = stop
		s.run = func(o runOpts) outcome { return clusterRun(coord, w, rels, o) }
	default:
		return nil, fmt.Errorf("workload %s: kind %q has no single-client session", w.name, w.kind)
	}
	for i := 0; i < warmups; i++ {
		s.check(s.run(runOpts{}), spec.Oracle[w.query], res)
	}
	res.SetupS = time.Since(start).Seconds()
	return s, nil
}

// check compares one outcome with the oracle; a mismatch, an error or a
// cluster retry is a failed operation.
func (s *session) check(o outcome, want sig, res *passResult) {
	s.queries++
	switch {
	case o.err != nil:
		res.fail("query %d: %v", s.queries, o.err)
	case sigOf(o.tuples) != want:
		got := sigOf(o.tuples)
		res.fail("query %d: %d tuples (hash %x), oracle has %d (hash %x)", s.queries, got.N, got.H, want.N, want.H)
	case s.w.kind == "cluster" && o.attempts != 1:
		res.fail("query %d: cluster took %d attempts", s.queries, o.attempts)
	case s.w.kind == "cluster" && s.rrHash != "" && o.hash != s.rrHash:
		res.fail("query %d: roster hash %s differs from earlier %s", s.queries, o.hash, s.rrHash)
	}
	if o.err == nil && s.rrHash == "" {
		s.rrHash = o.hash
	}
}

// allocMB returns the bytes allocated so far, in MB.
func allocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / 1e6
}

// runPass runs one pass of one workload and reports what it measured.
func runPass(spec passSpec) (*passResult, error) {
	w := findWorkload(spec.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	res := &passResult{RefKernelMS: []float64{refKernelMS()}}
	total0, steal0 := cpuJiffies()
	var log *spanLog
	if spec.TraceFile != "" {
		log = newSpanLog()
	}
	var err error
	switch {
	case w.kind == "served":
		err = servedPass(w, spec, log, res)
	case spec.TraceFile != "":
		err = tracedPass(w, spec, log, res)
	default:
		err = timedPass(w, spec, res)
	}
	if err != nil {
		return nil, err
	}
	res.RefKernelMS = append(res.RefKernelMS, refKernelMS())
	res.PeakRSSMB = peakRSSMB()
	if log != nil {
		total1, steal1 := cpuJiffies()
		res.Layers["host.steal_share"] = (steal1 - steal0) / max(total1-total0, 1)
		if err := log.write(spec.TraceFile); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timedPass is the untraced pass of a single-client workload: the
// end-to-end metrics come from here and nowhere else.
func timedPass(w *workload, spec passSpec, res *passResult) error {
	s, err := openSession(w, spec, nil, res)
	if err != nil {
		return err
	}
	defer s.stop()
	want := spec.Oracle[w.query]
	deadline := time.Now().Add(time.Duration(spec.MaxSeconds * float64(time.Second)))
	alloc0 := allocMB()
	for i := 0; i < spec.Ops && time.Now().Before(deadline); i++ {
		// Collect outside the timed region, so a query's wall does not
		// depend on how much garbage its predecessor left.
		runtime.GC()
		o := s.run(runOpts{})
		res.Attempted++
		res.WallMS = append(res.WallMS, ms(o.wall))
		if o.stats != nil {
			res.CommMB += float64(commBytes(o.stats)) / 1e6
		}
		s.check(o, want, res)
	}
	res.AllocMB = allocMB() - alloc0
	return nil
}
