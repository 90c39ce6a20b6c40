package mwsjoin

// BENCH_PR9.json is the committed planner anchor: on the EXPERIMENTS.md
// workload matrix (uniform and Zipf-clustered synthetics at unit
// 20,000), the cost-based planner's pick must run within 1.1× of the
// best hand-picked method's wall time on every workload.
// TestBenchPR9Anchor guards the committed numbers and re-runs a
// reduced-scale live check (plan validity + tuple identity — wall-clock
// ratios are only asserted on the committed full-scale record, where
// the runs are long enough to measure stably). Regenerate with:
//
//	MWSJ_WRITE_BENCH_PR9=1 go test -run TestBenchPR9Anchor .

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"mwsjoin/internal/dataset"
)

const pr9Seed = 2013

// pr9Workload is one row of the planner-acceptance matrix.
type pr9Workload struct {
	Name string `json:"name"`
	// Query is the query text; WallsMS maps each hand-picked method to
	// its measured wall milliseconds (best of pr9Repeats runs).
	Query   string             `json:"query"`
	WallsMS map[string]float64 `json:"walls_ms"`
	// BestMethod/BestWallMS identify the fastest hand-picked method.
	BestMethod string  `json:"best_method"`
	BestWallMS float64 `json:"best_wall_ms"`
	// The planner's decision and its measured execution.
	PlanMethod   string  `json:"plan_method"`
	PlanScheme   string  `json:"plan_scheme"`
	PlanReducers int     `json:"plan_reducers"`
	PlanCost     float64 `json:"plan_cost"`
	PlanWallMS   float64 `json:"plan_wall_ms"`
	// Ratio is PlanWallMS / BestWallMS, the acceptance figure.
	Ratio  float64 `json:"ratio"`
	Tuples int64   `json:"tuples"`
}

type pr9Anchor struct {
	Unit       int           `json:"unit"`
	Seed       uint64        `json:"seed"`
	Regenerate string        `json:"regenerate"`
	MaxRatio   float64       `json:"max_ratio"`
	Workloads  []pr9Workload `json:"workloads"`
}

// pr9Repeats: each (workload, method) wall is the best of this many
// runs, so one scheduling hiccup cannot crown the wrong method.
const pr9Repeats = 3

// pr9Methods are the hand-picked baselines the planner competes with.
var pr9Methods = []Method{Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit}

// pr9Matrix builds the workload matrix at the given scale: the paper's
// uniform synthetic and the Zipf-clustered skew workload, over chain
// and range queries.
func pr9Matrix(unit int) (map[string][]Relation, []struct{ name, query string }, error) {
	uniform := func(names ...string) ([]Relation, error) {
		rels := make([]Relation, len(names))
		for i, name := range names {
			rel, err := SyntheticRelation(name, PaperSyntheticParams(unit), pr9Seed)
			if err != nil {
				return nil, err
			}
			rels[i] = rel
		}
		return rels, nil
	}
	zipf := func(names ...string) ([]Relation, error) {
		rels := make([]Relation, len(names))
		for i, name := range names {
			rel, err := dataset.ZipfClusteredRelation(name, dataset.SkewedDefaults(unit), pr9Seed)
			if err != nil {
				return nil, err
			}
			rels[i] = rel
		}
		return rels, nil
	}

	sets := map[string][]Relation{}
	var err error
	if sets["q2-uniform"], err = uniform("R1", "R2", "R3"); err != nil {
		return nil, nil, err
	}
	if sets["q1-uniform"], err = uniform("R1", "R2", "R3", "R4"); err != nil {
		return nil, nil, err
	}
	if sets["q2-zipf"], err = zipf("R1", "R2", "R3"); err != nil {
		return nil, nil, err
	}
	if sets["q4-zipf"], err = zipf("R1", "R2", "R3"); err != nil {
		return nil, nil, err
	}
	rows := []struct{ name, query string }{
		{"q2-uniform", "R1 ov R2 and R2 ov R3"},
		{"q1-uniform", "R1 ov R2 and R2 ov R3 and R3 ov R4"},
		{"q2-zipf", "R1 ov R2 and R2 ov R3"},
		{"q4-zipf", "R1 ov R2 and R2 ra(100) R3"},
	}
	return sets, rows, nil
}

// measurePR9 runs the full acceptance measurement at the given scale.
func measurePR9(unit int) (*pr9Anchor, error) {
	a := &pr9Anchor{
		Unit: unit, Seed: pr9Seed,
		Regenerate: "MWSJ_WRITE_BENCH_PR9=1 go test -run TestBenchPR9Anchor .",
	}
	sets, rows, err := pr9Matrix(unit)
	if err != nil {
		return nil, err
	}
	wall := func(run func() (*Result, error)) (float64, int64, error) {
		best := math.Inf(1)
		var tuples int64
		for i := 0; i < pr9Repeats; i++ {
			start := time.Now()
			res, err := run()
			if err != nil {
				return 0, 0, err
			}
			if ms := float64(time.Since(start).Microseconds()) / 1000; ms < best {
				best = ms
			}
			tuples = res.Stats.OutputTuples
		}
		return best, tuples, nil
	}

	for _, row := range rows {
		q, err := ParseQuery(row.query)
		if err != nil {
			return nil, err
		}
		rels := sets[row.name]
		w := pr9Workload{Name: row.name, Query: row.query, WallsMS: map[string]float64{}, BestWallMS: math.Inf(1)}
		for _, m := range pr9Methods {
			mm := m
			ms, tuples, err := wall(func() (*Result, error) {
				return Run(q, rels, mm, &Options{CountOnly: true})
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", row.name, m, err)
			}
			w.WallsMS[m.String()] = ms
			if ms < w.BestWallMS {
				w.BestWallMS, w.BestMethod = ms, m.String()
			}
			w.Tuples = tuples
		}

		plan, err := PlanQuery(q, rels, &Options{}, PlannerOptions{})
		if err != nil {
			return nil, fmt.Errorf("%s: plan: %w", row.name, err)
		}
		w.PlanMethod = plan.Method.String()
		w.PlanScheme = PartitionUniform.String() // what Options{} configures
		w.PlanReducers = plan.Cells
		w.PlanCost = plan.Cost
		ms, tuples, err := wall(func() (*Result, error) {
			return RunPlan(q, rels, plan, &Options{CountOnly: true})
		})
		if err != nil {
			return nil, fmt.Errorf("%s: run plan: %w", row.name, err)
		}
		w.PlanWallMS = ms
		if tuples != w.Tuples {
			return nil, fmt.Errorf("%s: plan produced %d tuples, methods produced %d", row.name, tuples, w.Tuples)
		}
		w.Ratio = w.PlanWallMS / w.BestWallMS
		a.Workloads = append(a.Workloads, w)
		if w.Ratio > a.MaxRatio {
			a.MaxRatio = w.Ratio
		}
	}
	return a, nil
}

// TestBenchPR9Anchor regenerates the planner anchor when
// MWSJ_WRITE_BENCH_PR9 is set; otherwise it checks the committed
// full-scale record clears the 1.1× bar and runs a reduced-scale live
// sanity pass (every workload plans successfully, costs stay finite,
// and the planned execution is tuple-identical to a hand-picked run).
func TestBenchPR9Anchor(t *testing.T) {
	const anchorFile = "BENCH_PR9.json"
	if os.Getenv("MWSJ_WRITE_BENCH_PR9") != "" {
		unit := 20_000
		if u := benchUnit(); u > unit {
			unit = u
		}
		a, err := measurePR9(unit)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(a, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(anchorFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, w := range a.Workloads {
			t.Logf("%-12s best %-14s %7.1fms  plan %-14s %7.1fms  ratio %.3f",
				w.Name, w.BestMethod, w.BestWallMS, w.PlanMethod, w.PlanWallMS, w.Ratio)
		}
		return
	}

	// Live reduced-scale pass: correctness only, no wall assertions.
	unit := benchUnit()
	sets, rows, err := pr9Matrix(unit)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		q, err := ParseQuery(row.query)
		if err != nil {
			t.Fatal(err)
		}
		rels := sets[row.name]
		plan, err := PlanQuery(q, rels, &Options{}, PlannerOptions{})
		if err != nil {
			t.Fatalf("%s: plan: %v", row.name, err)
		}
		if math.IsNaN(plan.Cost) || math.IsInf(plan.Cost, 0) || plan.Cost <= 0 {
			t.Errorf("%s: plan cost = %v, want finite positive", row.name, plan.Cost)
		}
		got, err := RunPlan(q, rels, plan, &Options{})
		if err != nil {
			t.Fatalf("%s: run plan: %v", row.name, err)
		}
		want, err := Run(q, rels, ControlledReplicateLimit, &Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.TupleSet(), want.TupleSet()) {
			t.Errorf("%s: planned run diverges from c-rep-l (%d vs %d tuples)",
				row.name, len(got.TupleSet()), len(want.TupleSet()))
		}
	}

	// Committed full-scale anchor.
	raw, err := os.ReadFile(anchorFile)
	if err != nil {
		t.Fatalf("missing committed anchor (regenerate with %q): %v",
			"MWSJ_WRITE_BENCH_PR9=1 go test -run TestBenchPR9Anchor .", err)
	}
	var a pr9Anchor
	if err := json.Unmarshal(raw, &a); err != nil {
		t.Fatalf("%s: %v", anchorFile, err)
	}
	if a.Unit < 20_000 {
		t.Errorf("committed anchor unit %d < 20000", a.Unit)
	}
	if a.Seed != pr9Seed {
		t.Errorf("committed anchor seed %d, want %d", a.Seed, pr9Seed)
	}
	if len(a.Workloads) < 4 {
		t.Fatalf("committed anchor has %d workloads, want >= 4", len(a.Workloads))
	}
	// Planning is a deterministic function of the data, and cheap enough
	// to repeat at the anchor's own scale: the committed picks and their
	// costs are what the planner still says, to the bit.
	sets, rows, err = pr9Matrix(a.Unit)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		q, err := ParseQuery(row.query)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanQuery(q, sets[row.name], &Options{}, PlannerOptions{})
		if err != nil {
			t.Fatalf("%s: plan at unit %d: %v", row.name, a.Unit, err)
		}
		// The grid is the configured one — Options{} means uniform/64 —
		// which is also what the planner picked when the grid was its to
		// pick.
		w := a.Workloads[i]
		scheme := PartitionUniform.String()
		if w.Name != row.name || plan.Method.String() != w.PlanMethod || scheme != w.PlanScheme ||
			plan.Cells != w.PlanReducers || plan.Cost != w.PlanCost {
			t.Errorf("%s: planner picks %s on %s/%d at cost %v, the committed anchor has %s on %s/%d at cost %v",
				row.name, plan.Method, scheme, plan.Cells, plan.Cost, w.PlanMethod, w.PlanScheme, w.PlanReducers, w.PlanCost)
		}
	}
	for _, w := range a.Workloads {
		if w.Ratio > 1.1 {
			t.Errorf("%s: planner pick %s ran %.3f× the best method %s — over the 1.1× bar",
				w.Name, w.PlanMethod, w.Ratio, w.BestMethod)
		}
		if w.BestWallMS <= 0 || w.PlanWallMS <= 0 {
			t.Errorf("%s: non-positive wall times (%v, %v)", w.Name, w.BestWallMS, w.PlanWallMS)
		}
		if math.Abs(w.Ratio-w.PlanWallMS/w.BestWallMS) > 1e-9 {
			t.Errorf("%s: ratio %.4f inconsistent with walls %.3f/%.3f", w.Name, w.Ratio, w.PlanWallMS, w.BestWallMS)
		}
		if math.IsNaN(w.PlanCost) || math.IsInf(w.PlanCost, 0) || w.PlanCost <= 0 {
			t.Errorf("%s: committed plan cost %v is not finite positive", w.Name, w.PlanCost)
		}
		if w.Tuples == 0 {
			t.Errorf("%s: committed anchor records no output tuples — measurement is vacuous", w.Name)
		}
		if len(w.WallsMS) != len(pr9Methods) {
			t.Errorf("%s: %d method walls recorded, want %d", w.Name, len(w.WallsMS), len(pr9Methods))
		}
	}
}
