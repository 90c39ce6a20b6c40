package mwsjoin

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// smallWorld builds three tiny relations with one known 3-chain match:
// a0 overlaps b0, b0 is within 10 of c0.
func smallWorld() []Relation {
	a := NewRelation("A", []Rect{
		{X: 10, Y: 90, L: 10, B: 10},
		{X: 70, Y: 20, L: 5, B: 5},
	})
	b := NewRelation("B", []Rect{
		{X: 15, Y: 85, L: 10, B: 10},
	})
	c := NewRelation("C", []Rect{
		{X: 30, Y: 85, L: 5, B: 5}, // 5 right of b0's right edge
		{X: 90, Y: 10, L: 5, B: 5},
	})
	return []Relation{a, b, c}
}

func TestRunAllMethodsPublicAPI(t *testing.T) {
	q, err := ParseQuery("A ov B and B ra(10) C")
	if err != nil {
		t.Fatal(err)
	}
	rels := smallWorld()
	want := map[string]bool{Tuple{IDs: []int32{0, 0, 0}}.Key(): true}
	for _, m := range Methods() {
		res, err := Run(q, rels, m, nil)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !reflect.DeepEqual(res.TupleSet(), want) {
			t.Errorf("%v: tuples = %v, want [(0,0,0)]", m, res.Tuples)
		}
	}
}

func TestRunOptions(t *testing.T) {
	q := NewQuery("A", "B").Overlap(0, 1)
	rels := smallWorld()[:2]
	part, err := NewPartitioning(Rect{X: 0, Y: 100, L: 100, B: 100}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []*Options{
		nil,
		{Reducers: 16},
		{Partitioning: part},
		{EuclideanLimit: true, Parallelism: 2},
	} {
		res, err := Run(q, rels, ControlledReplicateLimit, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if len(res.Tuples) != 1 {
			t.Errorf("opts %+v: %d tuples, want 1", opts, len(res.Tuples))
		}
	}
	if _, err := Run(q, rels, ControlledReplicate, &Options{Reducers: 7}); err == nil {
		t.Error("non-square reducer count must fail")
	}
}

func TestPublicDataHelpers(t *testing.T) {
	rel, err := SyntheticRelation("S", PaperSyntheticParams(100), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Items) != 100 {
		t.Fatalf("synthetic items = %d", len(rel.Items))
	}
	roads := CaliforniaRoadsRelation("roads", 500, 2)
	if len(roads.Items) != 500 {
		t.Fatalf("road items = %d", len(roads.Items))
	}

	path := filepath.Join(t.TempDir(), "r.csv")
	rects := make([]Rect, 0, len(rel.Items))
	for _, it := range rel.Items {
		rects = append(rects, it.R)
	}
	if err := WriteRelationFile(path, rects); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRelationFile("S2", path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Items) != len(rel.Items) || back.Name != "S2" {
		t.Error("file round trip mismatch")
	}

	if _, err := NewRect(0, 0, -1, 0); err == nil {
		t.Error("NewRect must validate")
	}
	if m, err := ParseMethod("c-rep-l"); err != nil || m != ControlledReplicateLimit {
		t.Errorf("ParseMethod = %v, %v", m, err)
	}
}

func TestSelfJoinThroughPublicAPI(t *testing.T) {
	roads := CaliforniaRoadsRelation("roads", 300, 3)
	q, err := ParseQuery("r1 ov r2 and r2 ov r3")
	if err != nil {
		t.Fatal(err)
	}
	rels := []Relation{roads, roads, roads}
	want, err := Run(q, rels, BruteForce, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(q, rels, ControlledReplicateLimit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.TupleSet(), want.TupleSet()) {
		t.Errorf("self-join star query mismatch: %d vs %d tuples", len(got.Tuples), len(want.Tuples))
	}
}

// TestMetricsConcurrentRuns: runs publish into a shared registry when
// they end, so concurrent Run calls sharing one sum exactly.
func TestMetricsConcurrentRuns(t *testing.T) {
	roads := CaliforniaRoadsRelation("roads", 400, 5)
	rels := []Relation{roads, roads, roads}
	q, err := ParseQuery("a ov b and b ov c")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	methods := []Method{Cascade, ControlledReplicate, AllReplicate, ControlledReplicateLimit}
	results := make([]*Result, len(methods))
	errs := make([]error, len(methods))
	var wg sync.WaitGroup
	for i, m := range methods {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Run(q, rels, m, &Options{Reducers: 16, Metrics: reg})
		}()
	}
	wg.Wait()
	want := map[string]int64{"spatial_runs_total": int64(len(methods))}
	var reducers int64
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("%v: %v", methods[i], errs[i])
		}
		s := res.Stats
		want["spatial_output_tuples_total"] += s.OutputTuples
		want["spatial_intermediate_pairs_total"] += s.IntermediatePairs()
		want["mapreduce_jobs_total"] += int64(len(s.Rounds))
		want["mapreduce_intermediate_pairs_total"] += s.IntermediatePairs()
		want["dfs_bytes_read_total"] += s.DFS.BytesRead
		want["chain_checkpoint_bytes_written_total"] += s.Chain.CheckpointBytesWritten
		for _, r := range s.Rounds {
			reducers += int64(len(r.PairsPerReducer))
		}
	}
	snap := reg.Snapshot()
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("counter %s = %d, want the runs' sum %d", name, got, v)
		}
	}
	if h := snap.Histograms["mapreduce_reducer_pairs"]; h.Count != reducers || h.Sum != want["mapreduce_intermediate_pairs_total"] {
		t.Errorf("reducer_pairs count %d sum %d, want %d and %d", h.Count, h.Sum, reducers, want["mapreduce_intermediate_pairs_total"])
	}
}

func TestMetricsPublicAPI(t *testing.T) {
	roads := CaliforniaRoadsRelation("roads", 400, 5)
	rels := []Relation{roads, roads, roads}
	q, err := ParseQuery("a ov b and b ov c")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	res, err := Run(q, rels, ControlledReplicate, &Options{Reducers: 16, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OutputTuples == 0 || res.Stats.IntermediatePairs() == 0 || res.Stats.RectanglesReplicated == 0 {
		t.Fatalf("degenerate run: %+v", res.Stats)
	}

	// The published registry and the flat Stats must agree exactly.
	snap := reg.Snapshot()
	s := res.Stats
	for name, want := range map[string]int64{
		"spatial_runs_total":                  1,
		"spatial_output_tuples_total":         s.OutputTuples,
		"spatial_intermediate_pairs_total":    s.IntermediatePairs(),
		"spatial_rectangles_replicated_total": s.RectanglesReplicated,
		"spatial_rectangle_copies_total":      s.RectanglesAfterReplication,
		"mapreduce_jobs_total":                int64(len(s.Rounds)),
		"mapreduce_intermediate_pairs_total":  s.IntermediatePairs(),
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	// Per-reducer distribution: the histogram saw every reducer of every
	// job and its sum is the total pair count.
	h := snap.Histograms["mapreduce_reducer_pairs"]
	if h.Sum != s.IntermediatePairs() {
		t.Errorf("reducer_pairs sum = %d, want %d", h.Sum, s.IntermediatePairs())
	}
	if h.Count != int64(len(s.Rounds)*16) {
		t.Errorf("reducer_pairs count = %d, want %d", h.Count, len(s.Rounds)*16)
	}

	// CountOnly reproduces the exact counters without materialising.
	res2, err := Run(q, rels, ControlledReplicate, &Options{Reducers: 16, CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Tuples != nil {
		t.Error("CountOnly materialised tuples")
	}
	if res2.Stats.OutputTuples != s.OutputTuples {
		t.Errorf("CountOnly tuples = %d, want %d", res2.Stats.OutputTuples, s.OutputTuples)
	}

	// Predictions are deterministic and carry the method's round count.
	p1, err := Predict(q, rels, ControlledReplicate, &Options{Reducers: 16})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Predict(q, rels, ControlledReplicate, &Options{Reducers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("Predict not deterministic: %+v vs %+v", p1, p2)
	}
	if p1.Rounds != 2 || p1.Pairs <= 0 || p1.Tuples <= 0 {
		t.Errorf("c-rep prediction = %+v", p1)
	}
}

// TestNoProfilerOnDefaultMux: linking the library registers nothing on
// http.DefaultServeMux, so a program that serves the default mux does
// not expose the Go profiler by importing mwsjoin.
func TestNoProfilerOnDefaultMux(t *testing.T) {
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/profile", "/metrics"} {
		if _, pattern := http.DefaultServeMux.Handler(httptest.NewRequest("GET", path, nil)); pattern != "" {
			t.Errorf("http.DefaultServeMux routes %s to pattern %q", path, pattern)
		}
	}
}

// TestPaperScaleSmoke is the gate's one paper-scale execution: the Q2
// chain through C-Rep-L, in memory, at the unit MWSJ_BENCH_UNIT names.
// scripts/check.sh sets 200,000 — three 200k-rectangle relations, 10×
// the EXPERIMENTS.md tables — under a -timeout. Without the variable it
// is skipped: at small units the batteries of internal/spatial cover
// the same path. The space shrinks by √(unit/10⁶) as in internal/bench,
// so density stays the paper's.
func TestPaperScaleSmoke(t *testing.T) {
	if os.Getenv("MWSJ_BENCH_UNIT") == "" {
		t.Skip("MWSJ_BENCH_UNIT is not set")
	}
	unit := benchUnit()
	rels := make([]Relation, 3)
	for i := range rels {
		p := PaperSyntheticParams(unit)
		p.XMax *= sqrtRatio(unit)
		p.YMax *= sqrtRatio(unit)
		p.LMax, p.BMax = 100, 100
		rel, err := SyntheticRelation(fmt.Sprintf("R%d", i+1), p, 2013+uint64(i)*101)
		if err != nil {
			t.Fatal(err)
		}
		rels[i] = rel
	}
	q := NewQuery("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	res, err := Run(q, rels, ControlledReplicateLimit, &Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("unit %d: %d tuples, %d pairs, wall %v", unit, res.Stats.OutputTuples, res.Stats.IntermediatePairs(), res.Stats.Wall)
	if res.Stats.OutputTuples == 0 {
		t.Error("no tuples — the run is vacuous")
	}
}
