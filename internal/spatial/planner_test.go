package spatial

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/query"
)

// assertFinitePrediction fails if any cost field of a prediction is
// NaN, infinite or negative — the invariant Predict documents and the
// planner's total order depends on.
func assertFinitePrediction(t *testing.T, ctx string, p *Prediction) {
	t.Helper()
	if p == nil {
		t.Errorf("%s: nil prediction", ctx)
		return
	}
	check := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("%s: %s = %v, want finite non-negative", ctx, name, v)
		}
	}
	check("Pairs", p.Pairs)
	check("Replicated", p.Replicated)
	check("Copies", p.Copies)
	check("Tuples", p.Tuples)
	for i, rp := range p.RoundPairs {
		check(fmt.Sprintf("RoundPairs[%d]", i), rp)
	}
}

// assertOneAxis checks the planner's whole contract on a plan: one
// candidate per method, each exactly what Predict returns for the method
// under cfg in the cost-based join order, all on the grid Execute
// resolves from cfg, ranked by planCost with ties broken by method.
func assertOneAxis(t *testing.T, plan *Plan, q *query.Query, rels []Relation, cfg Config, popts PlannerOptions) {
	t.Helper()
	if want := len(popts.methods()); len(plan.Alternatives) != want {
		t.Fatalf("%d candidates, want one per method (%d)", len(plan.Alternatives), want)
	}
	if !reflect.DeepEqual(plan.Alternatives[0], plan.PlanCandidate) {
		t.Error("Alternatives[0] must be the chosen plan")
	}
	part := cfg.Part
	if part == nil {
		var err error
		if part, err = BuildPartitioning(cfg.Scheme, rels, cfg.Reducers, cfg.SplitThreshold); err != nil {
			t.Fatal(err)
		}
	}
	if plan.Part != part {
		t.Errorf("plan grid %v is not the configured grid %v", plan.Part, part)
	}
	cfg.OptimizeOrder = true
	for i, c := range plan.Alternatives {
		pred, err := Predict(c.Method, q, rels, cfg)
		if err != nil {
			t.Fatalf("Predict(%v): %v", c.Method, err)
		}
		if !reflect.DeepEqual(c.Prediction, pred) {
			t.Errorf("%v: planned on %+v, Predict says %+v", c.Method, c.Prediction, pred)
		}
		if c.Cells != part.NumCells() || c.Cost != planCost(pred) {
			t.Errorf("%v: %d cells at cost %v, want %d cells at planCost(Predict) = %v",
				c.Method, c.Cells, c.Cost, part.NumCells(), planCost(pred))
		}
		if i > 0 && lessCandidate(c, plan.Alternatives[i-1]) {
			t.Errorf("%v ranked after the dearer %v", c.Method, plan.Alternatives[i-1].Method)
		}
	}
}

// plannerCase is one scenario of the planner battery.
type plannerCase struct {
	name string
	q    *query.Query
	rels []Relation
	cfg  Config
}

// plannerDegenerateCases enumerates the degenerate inputs the planner
// must survive: empty relations, single records, identical rectangles,
// a one-cell grid, and a self-join.
func plannerDegenerateCases() []plannerCase {
	pair := func() *query.Query { return query.New("R1", "R2").Overlap(0, 1) }
	some := []geom.Rect{
		{X: 10, Y: 90, L: 5, B: 5},
		{X: 12, Y: 88, L: 5, B: 5},
		{X: 70, Y: 30, L: 4, B: 4},
	}
	identical := make([]geom.Rect, 40)
	for i := range identical {
		identical[i] = geom.Rect{X: 50, Y: 50, L: 10, B: 10}
	}
	self := NewRelation("R", some)
	cases := []plannerCase{
		{
			name: "empty-relation",
			q:    pair(),
			rels: []Relation{NewRelation("R1", some), NewRelation("R2", nil)},
		},
		{
			name: "all-empty",
			q:    chain4(),
			rels: []Relation{NewRelation("R1", nil), NewRelation("R2", nil), NewRelation("R3", nil), NewRelation("R4", nil)},
		},
		{
			name: "single-record",
			q:    pair(),
			rels: []Relation{NewRelation("R1", some[:1]), NewRelation("R2", []geom.Rect{{X: 11, Y: 89, L: 5, B: 5}})},
		},
		{
			name: "all-identical-rects",
			q:    pair(),
			rels: []Relation{NewRelation("R1", identical), NewRelation("R2", identical[:20])},
		},
		{
			name: "one-cell-grid",
			q:    chain4(),
			rels: figure4Relations(),
			cfg:  Config{Reducers: 1},
		},
		{
			name: "self-join",
			q:    query.New("a", "b", "c").Overlap(0, 1).Overlap(1, 2),
			rels: []Relation{self, self, self},
		},
	}
	return cases
}

// TestPlannerDegenerateBattery runs the planner over every degenerate
// scenario: it must always return a valid plan with a finite cost whose
// execution matches the brute-force oracle exactly.
func TestPlannerDegenerateBattery(t *testing.T) {
	for _, tc := range plannerDegenerateCases() {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := PlanQuery(tc.q, tc.rels, tc.cfg, PlannerOptions{})
			if err != nil {
				t.Fatalf("PlanQuery: %v", err)
			}
			assertOneAxis(t, plan, tc.q, tc.rels, tc.cfg, PlannerOptions{})
			for _, c := range plan.Alternatives {
				ctx := fmt.Sprintf("candidate %v", c.Method)
				if math.IsNaN(c.Cost) || math.IsInf(c.Cost, 0) || c.Cost < 0 {
					t.Errorf("%s: cost = %v, want finite non-negative", ctx, c.Cost)
				}
				assertFinitePrediction(t, ctx, c.Prediction)
			}

			res, err := ExecutePlan(plan, tc.q, tc.rels, tc.cfg)
			if err != nil {
				t.Fatalf("ExecutePlan(%v): %v", plan.Method, err)
			}
			want, err := Execute(BruteForce, tc.q, tc.rels, tc.cfg)
			if err != nil {
				t.Fatalf("brute-force oracle: %v", err)
			}
			if !reflect.DeepEqual(res.TupleSet(), want.TupleSet()) {
				t.Errorf("plan %v tuples diverge from brute force: got %d, want %d",
					plan.Method, len(res.TupleSet()), len(want.TupleSet()))
			}
		})
	}
}

// TestPlannerEquivalenceBattery checks the chosen plan's execution is
// tuple-identical to the brute-force oracle under the engine's stress
// axes: parallelism × injected map/reduce faults, plus a kill/resume
// pass at every job boundary.
func TestPlannerEquivalenceBattery(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	rels := randomRelations(rng, 3, 120, 1000, 60)

	plan, err := PlanQuery(q, rels, Config{}, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(BruteForce, q, rels, Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantSet := want.TupleSet()

	faults := []struct {
		name string
		cfg  Config
	}{
		{name: "clean"},
		{name: "map-fault", cfg: Config{
			MaxAttempts: 3,
			FailMap:     func(mapper, attempt int) bool { return mapper == 0 && attempt == 1 },
		}},
		{name: "reduce-fault", cfg: Config{
			MaxAttempts: 3,
			FailReduce:  func(reducer, attempt int) bool { return reducer%3 == 0 && attempt == 1 },
		}},
	}
	for _, par := range []int{1, 2, 8} {
		for _, f := range faults {
			t.Run(fmt.Sprintf("p%d/%s", par, f.name), func(t *testing.T) {
				cfg := f.cfg
				cfg.Parallelism = par
				res, err := ExecutePlan(plan, q, rels, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.TupleSet(), wantSet) {
					t.Errorf("plan %v under p=%d/%s diverges from brute force", plan.Method, par, f.name)
				}
			})
		}
	}

	// Kill the planned run before each job boundary, then resume from
	// the checkpoint snapshot: same tuples, no lost or duplicated work.
	clean, err := ExecutePlan(plan, q, rels, Config{FS: dfs.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	jobs := int(clean.Stats.Chain.JobsRun)
	for k := 1; k < jobs; k++ {
		t.Run(fmt.Sprintf("kill-resume-%d", k), func(t *testing.T) {
			fs := dfs.New(0)
			kk := k
			_, err := ExecutePlan(plan, q, rels, Config{FS: fs, FailJob: func(i int) bool { return i == kk }})
			if err == nil {
				t.Fatal("killed run unexpectedly succeeded")
			}
			res, err := ExecutePlan(plan, q, rels, Config{FS: fs, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.TupleSet(), wantSet) {
				t.Errorf("resumed plan %v diverges from brute force", plan.Method)
			}
			if res.Stats.Chain.ResumedJobs != int64(kk) {
				t.Errorf("resumed jobs = %d, want %d", res.Stats.Chain.ResumedJobs, kk)
			}
		})
	}
}

// planFingerprint renders the full decision of a plan, down to every
// alternative's cost, for determinism comparisons.
func planFingerprint(p *Plan) string {
	var b strings.Builder
	for _, c := range p.Alternatives {
		fmt.Fprintf(&b, "%v|%d|%.6g;", c.Method, c.Cells, c.Cost)
	}
	return b.String()
}

// TestPlannerDeterminism plans the same query twice and demands the
// identical decision, including the full ranked alternative list.
func TestPlannerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 2))
	q := chain4()
	rels := randomRelations(rng, 4, 200, 1000, 50)
	a, err := PlanQuery(q, rels, Config{}, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanQuery(q, rels, Config{}, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if planFingerprint(a) != planFingerprint(b) {
		t.Errorf("same inputs, different plans:\n a: %s\n b: %s", planFingerprint(a), planFingerprint(b))
	}
	assertOneAxis(t, a, q, rels, Config{}, PlannerOptions{})
}

// TestPlannerRejectsBruteForce: BruteForce predicts zero communication
// and would win any cost comparison vacuously, so asking the planner to
// enumerate it is an error, not a silent bad plan.
func TestPlannerRejectsBruteForce(t *testing.T) {
	q := query.New("R1", "R2").Overlap(0, 1)
	rels := []Relation{NewRelation("R1", nil), NewRelation("R2", nil)}
	_, err := PlanQuery(q, rels, Config{}, PlannerOptions{Methods: []Method{BruteForce}})
	if err == nil {
		t.Fatal("planner accepted BruteForce")
	}
}

// TestPlannerPinnedGrid: the grid is never the planner's to choose —
// a caller-fixed Config.Part, the default, or any scheme and resolution
// (square or not) the Config names is the one grid every method is
// priced on and the plan runs on.
func TestPlannerPinnedGrid(t *testing.T) {
	q := chain4()
	rels := figure4Relations()
	for name, cfg := range map[string]Config{
		"part":         {Part: grid2x2(t)},
		"default":      {},
		"uniform-36":   {Reducers: 36},
		"adaptive-7":   {Scheme: PartitionAdaptive, Reducers: 7, SplitThreshold: 0.5},
		"euclidean-16": {Reducers: 16, LimitMetric: grid.MetricEuclidean},
	} {
		for _, popts := range []PlannerOptions{{}, {Methods: []Method{ControlledReplicateLimit, Cascade}}} {
			plan, err := PlanQuery(q, rels, cfg, popts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertOneAxis(t, plan, q, rels, cfg, popts)
		}
	}
}

// TestPlannerExplainOutput sanity-checks the EXPLAIN PLAN rendering:
// a header, the chosen row marked with *, one row per candidate.
func TestPlannerExplainOutput(t *testing.T) {
	q := chain4()
	rels := figure4Relations()
	plan, err := PlanQuery(q, rels, Config{}, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := plan.WriteExplain(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != len(plan.Alternatives)+1 {
		t.Fatalf("explain table has %d lines, want %d:\n%s", len(lines), len(plan.Alternatives)+1, b.String())
	}
	if !strings.Contains(lines[0], "cost") {
		t.Errorf("missing header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "*") {
		t.Errorf("chosen row not marked: %q", lines[1])
	}
}

// TestPredictFiniteOnDegenerateInputs is the regression battery for the
// NaN/Inf cost-model holes: every method's prediction stays finite on
// empty relations, single records and identical rectangles.
func TestPredictFiniteOnDegenerateInputs(t *testing.T) {
	for _, tc := range plannerDegenerateCases() {
		for _, m := range []Method{BruteForce, Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit} {
			p, err := Predict(m, tc.q, tc.rels, Config{})
			if err != nil {
				t.Errorf("%s/%v: %v", tc.name, m, err)
				continue
			}
			assertFinitePrediction(t, fmt.Sprintf("%s/%v", tc.name, m), p)
			var sum float64
			for _, rp := range p.RoundPairs {
				sum += rp
			}
			if p.Pairs != sum {
				t.Errorf("%s/%v: Pairs = %v, want sum of rounds %v", tc.name, m, p.Pairs, sum)
			}
		}
	}
}

// TestPredictRejectsInvalidRects: a NaN coordinate must be a load-time
// error, not a NaN that poisons every sampled sum downstream — on the
// call that summarises the relation and, with the same error, on every
// later call that reads the summary.
func TestPredictRejectsInvalidRects(t *testing.T) {
	q := query.New("R1", "R2").Overlap(0, 1)
	nan := geom.Rect{X: math.NaN(), Y: 1, L: 1, B: 1}
	good := NewRelation("R1", []geom.Rect{{X: 0, Y: 1, L: 1, B: 1}})
	for name, bad := range map[string]Relation{
		"literal":    {Name: "R2", Items: []Item{{ID: 0, R: nan}}},
		"summarised": NewRelation("R2", []geom.Rect{{X: 3, Y: 1, L: 1, B: 1}, nan}),
	} {
		rels := []Relation{good, bad}
		var first string
		for _, m := range []Method{Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit} {
			_, err := Predict(m, q, rels, Config{})
			if err == nil {
				t.Errorf("%s/%v: NaN rectangle accepted", name, m)
				continue
			}
			if first == "" {
				first = err.Error()
			}
			if err.Error() != first {
				t.Errorf("%s/%v: error %q, the first call's was %q", name, m, err, first)
			}
		}
		for _, run := range []func() error{
			func() error { _, err := PlanQuery(q, rels, Config{}, PlannerOptions{}); return err },
			func() error { _, err := Execute(Cascade, q, rels, Config{}); return err },
		} {
			if err := run(); err == nil || err.Error() != first {
				t.Errorf("%s: PlanQuery/Execute error %v, Predict's was %q", name, err, first)
			}
		}
		if want := fmt.Sprintf("spatial: relation %q (slot 1) item %d: ", "R2", len(bad.Items)-1); !strings.HasPrefix(first, want) {
			t.Errorf("%s: error %q, want it to name the relation, slot and item: %q…", name, first, want)
		}
	}
}

// FuzzPlannerDeterminism: for any seed-derived workload, planning twice
// yields the byte-identical decision — the property the daemon's
// admission control and the result cache rely on.
func FuzzPlannerDeterminism(f *testing.F) {
	f.Add(uint64(1), uint64(2), 3, 50)
	f.Add(uint64(7), uint64(11), 2, 1)
	f.Add(uint64(2013), uint64(0), 4, 25)
	f.Fuzz(func(t *testing.T, s1, s2 uint64, nRel, n int) {
		if nRel < 2 {
			nRel = 2
		}
		if nRel > 5 {
			nRel = 5
		}
		if n < 0 {
			n = 0
		}
		if n > 200 {
			n = 200
		}
		rng := rand.New(rand.NewPCG(s1, s2))
		rels := randomRelations(rng, nRel, n, 1000, 60)
		slots := []string{"R1", "R2", "R3", "R4", "R5"}[:nRel]
		q := query.New(slots...)
		for i := 0; i+1 < nRel; i++ {
			q = q.Overlap(i, i+1)
		}
		a, err := PlanQuery(q, rels, Config{}, PlannerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := PlanQuery(q, rels, Config{}, PlannerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if planFingerprint(a) != planFingerprint(b) {
			t.Errorf("nondeterministic plan for seed (%d,%d):\n a: %s\n b: %s", s1, s2, planFingerprint(a), planFingerprint(b))
		}
		assertOneAxis(t, a, q, rels, Config{}, PlannerOptions{})
	})
}
