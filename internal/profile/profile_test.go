package profile

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
	"mwsjoin/internal/trace"
)

// testRelations builds nRel seeded relations of n rectangles each.
func testRelations(seed uint64, nRel, n int, space, maxDim float64) []spatial.Relation {
	rng := rand.New(rand.NewPCG(seed, 7))
	names := []string{"R1", "R2", "R3", "R4"}
	rels := make([]spatial.Relation, nRel)
	for i := range rels {
		rects := make([]geom.Rect, n)
		for j := range rects {
			rects[j] = geom.Rect{
				X: rng.Float64() * space,
				Y: rng.Float64() * space,
				L: rng.Float64() * maxDim,
				B: rng.Float64() * maxDim,
			}
		}
		rels[i] = spatial.NewRelation(names[i], rects)
	}
	return rels
}

var testMethods = []spatial.Method{
	spatial.Cascade, spatial.AllReplicate,
	spatial.ControlledReplicate, spatial.ControlledReplicateLimit,
}

// runProfile executes the query traced on a private FS and returns the
// normalized profile's canonical JSON.
func runProfile(t *testing.T, m spatial.Method, q *query.Query, rels []spatial.Relation, cfg spatial.Config) []byte {
	t.Helper()
	tr := trace.New()
	cfg.Tracer = tr
	if cfg.FS == nil {
		cfg.FS = dfs.New(0)
	}
	res, err := spatial.Execute(m, q, rels, cfg)
	if err != nil {
		t.Fatalf("%v: %v", m, err)
	}
	p := Build(q.String(), &res.Stats, tr.Spans())
	b, err := json.Marshal(p.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestProfileDeterministicAcrossParallelism is the acceptance property
// test: two runs of the same query produce byte-identical normalized
// profiles, across Parallelism {1, 2, 8}, plain and under fault
// injection. NumMappers is pinned (it defaults to Parallelism, and the
// mapper count is a real cost parameter: attempts and task spans scale
// with it).
func TestProfileDeterministicAcrossParallelism(t *testing.T) {
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 40)
	rels := testRelations(11, 3, 220, 1000, 60)
	part, err := spatial.DefaultPartitioning(rels, 16)
	if err != nil {
		t.Fatal(err)
	}
	faults := spatial.Config{
		MaxAttempts: 3,
		FailMap:     func(m, a int) bool { return a == 1 && m%2 == 0 },
		FailReduce:  func(r, a int) bool { return a == 1 && r%5 == 1 },
	}
	for _, m := range testMethods {
		for name, fcfg := range map[string]spatial.Config{"plain": {}, "faults": faults} {
			var want []byte
			for _, par := range []int{1, 2, 8} {
				for rep := 0; rep < 2; rep++ {
					cfg := fcfg
					cfg.Part, cfg.NumMappers, cfg.Parallelism = part, 4, par
					got := runProfile(t, m, q, rels, cfg)
					if want == nil {
						want = got
					} else if !bytes.Equal(got, want) {
						t.Errorf("%v/%s: normalized profile diverges at parallelism %d rep %d:\n got %s\nwant %s",
							m, name, par, rep, got, want)
					}
				}
			}
		}
	}
}

// TestProfileDeterministicUnderKillResume extends the property to
// chain recovery: kill the chain at a job boundary, resume on the same
// FS, and the resumed run's normalized profile is byte-identical
// across parallelism and repeats.
func TestProfileDeterministicUnderKillResume(t *testing.T) {
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	rels := testRelations(12, 3, 200, 1000, 60)
	part, err := spatial.DefaultPartitioning(rels, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range testMethods {
		// Probe the chain length: the kill lands before the last job, so
		// single-job methods (All-Replicate) are killed at boundary 0.
		probe, err := spatial.Execute(m, q, rels, spatial.Config{Part: part, NumMappers: 4, FS: dfs.New(0)})
		if err != nil {
			t.Fatal(err)
		}
		killAt := int(probe.Stats.Chain.Jobs) - 1

		var want []byte
		for _, par := range []int{1, 2, 8} {
			for rep := 0; rep < 2; rep++ {
				fs := dfs.New(0)
				base := spatial.Config{Part: part, NumMappers: 4, Parallelism: par, FS: fs}
				kill := base
				kill.FailJob = func(i int) bool { return i == killAt }
				_, err := spatial.Execute(m, q, rels, kill)
				var killed *mapreduce.ChainKilledError
				if !errors.As(err, &killed) {
					t.Fatalf("%v: killed run err = %v", m, err)
				}
				resume := base
				resume.Resume = true
				got := runProfile(t, m, q, rels, resume)
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Errorf("%v: resumed profile diverges at parallelism %d rep %d", m, par, rep)
				}
			}
		}
		// The resumed profile must carry the recovery accounting.
		var p Profile
		if err := json.Unmarshal(want, &p); err != nil {
			t.Fatal(err)
		}
		if p.Chain == nil || (killAt > 0 && p.Chain.ResumedJobs == 0) {
			t.Errorf("%v: resumed profile chain accounting = %+v", m, p.Chain)
		}
	}
}

// TestProfileBuildFields cross-checks the assembled profile against
// the Stats it was built from, and exercises the text rendering.
func TestProfileBuildFields(t *testing.T) {
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	rels := testRelations(13, 3, 250, 1000, 60)
	tr := trace.New()
	res, err := spatial.Execute(spatial.ControlledReplicateLimit, q, rels, spatial.Config{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	st := &res.Stats
	p := Build(q.String(), st, tr.Spans())

	if p.Method != "c-rep-l" || p.Query != q.String() {
		t.Errorf("profile header = %q %q", p.Method, p.Query)
	}
	if p.Cells != 64 {
		t.Errorf("cells = %d, want 64 (default grid)", p.Cells)
	}
	if len(p.Rounds) != len(st.Rounds) {
		t.Fatalf("rounds = %d, want %d", len(p.Rounds), len(st.Rounds))
	}
	for i, r := range p.Rounds {
		rst := st.Rounds[i]
		if r.Job != rst.Job || r.Shuffle.Pairs != rst.IntermediatePairs ||
			r.Shuffle.Bytes != rst.IntermediateBytes || r.Map.Records != rst.MapInputRecords ||
			r.Reduce.Keys != rst.ReduceInputKeys || r.Reduce.Records != rst.ReduceOutputRecords {
			t.Errorf("round %d diverges from stats: %+v vs %+v", i, r, rst)
		}
		if r.Shuffle.Skew != rst.MaxReducerSkew() {
			t.Errorf("round %d skew = %v, want %v", i, r.Shuffle.Skew, rst.MaxReducerSkew())
		}
		if r.Map.WallUS != rst.MapWall.Microseconds() || r.Reduce.WallUS != rst.ReduceWall.Microseconds() {
			t.Errorf("round %d phase walls diverge from stats", i)
		}
		if r.Shuffle.WallUS <= 0 {
			t.Errorf("round %d shuffle wall = %d, want > 0 (from span tree)", i, r.Shuffle.WallUS)
		}
	}
	if p.IntermediatePairs != st.IntermediatePairs() || p.OutputTuples != st.OutputTuples {
		t.Errorf("totals diverge: %+v", p)
	}
	if p.Chain == nil || !reflect.DeepEqual(*p.Chain, *st.Chain) {
		t.Errorf("chain = %+v, want %+v", p.Chain, st.Chain)
	}
	if p.DFS != st.DFS {
		t.Errorf("dfs = %+v, want %+v", p.DFS, st.DFS)
	}
	if p.UnfinishedSpans != 0 {
		t.Errorf("clean run reports %d unfinished spans", p.UnfinishedSpans)
	}

	var buf bytes.Buffer
	if err := p.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"profile c-rep-l", "round 1", "round 2", "shuffle", "chain jobs", "dfs "} {
		if !strings.Contains(out, want) {
			t.Errorf("text profile missing %q:\n%s", want, out)
		}
	}

	// Normalize zeroes every wall field and only wall fields.
	n := p.Normalize()
	if n.WallUS != 0 {
		t.Error("Normalize kept run wall")
	}
	for i, r := range n.Rounds {
		if r.WallUS != 0 || r.Map.WallUS != 0 || r.Shuffle.WallUS != 0 || r.Reduce.WallUS != 0 {
			t.Errorf("Normalize kept round %d walls: %+v", i, r)
		}
		if r.Shuffle.Pairs != p.Rounds[i].Shuffle.Pairs {
			t.Errorf("Normalize changed a counter in round %d", i)
		}
	}
	if p.Rounds[0].WallUS == 0 && p.WallUS == 0 {
		t.Error("original profile mutated by Normalize")
	}
}

// TestProfileWithoutTracer: every count of a profile comes from Stats,
// so an untraced run's profile has them all — the cell count included,
// which spatial_partition_cells reports for the same Stats — and only
// the shuffle walls, which the spans time, stay zero.
func TestProfileWithoutTracer(t *testing.T) {
	q := query.New("R1", "R2").Overlap(0, 1)
	rels := testRelations(14, 2, 150, 1000, 60)
	res, err := spatial.Execute(spatial.ControlledReplicate, q, rels, spatial.Config{Reducers: 16})
	if err != nil {
		t.Fatal(err)
	}
	p := Build(q.String(), &res.Stats, nil)
	if p.Cells != 16 || len(p.Rounds) != len(res.Stats.Rounds) {
		t.Errorf("untraced profile = %+v, want 16 cells", p)
	}
	if p.IntermediatePairs != res.Stats.IntermediatePairs() {
		t.Error("untraced profile lost counters")
	}
	for i, r := range p.Rounds {
		if r.Shuffle.WallUS != 0 {
			t.Errorf("round %d: untraced shuffle wall %d", i, r.Shuffle.WallUS)
		}
	}
	var buf bytes.Buffer
	if err := p.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cells 16 ") {
		t.Errorf("untraced profile text:\n%s", buf.String())
	}
}

// TestProfileBruteForceHasNoCells: BruteForce runs no map-reduce job and
// so no reducer grid; its profile reports no cells, traced or not.
func TestProfileBruteForceHasNoCells(t *testing.T) {
	q := query.New("R1", "R2").Overlap(0, 1)
	rels := testRelations(14, 2, 150, 1000, 60)
	tr := trace.New()
	res, err := spatial.Execute(spatial.BruteForce, q, rels, spatial.Config{Reducers: 16, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	for _, spans := range [][]trace.Span{nil, tr.Spans()} {
		if p := Build(q.String(), &res.Stats, spans); p.Cells != 0 || len(p.Rounds) != 0 {
			t.Errorf("brute-force profile = %+v, want no cells and no rounds", p)
		}
	}
}

// TestPredictionReconcilesStats is the regression test for the
// predicted-vs-actual table path: for every method × partition scheme,
// each Prediction phase field pairs with the Stats counterpart its doc
// comment names — the pairing the -explain table prints.
func TestPredictionReconcilesStats(t *testing.T) {
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 40)
	rels := testRelations(15, 3, 260, 1000, 60)
	for _, scheme := range []spatial.PartitionScheme{spatial.PartitionUniform, spatial.PartitionAdaptive} {
		for _, m := range spatial.Methods() {
			cfg := spatial.Config{Scheme: scheme}
			pred, err := spatial.Predict(m, q, rels, cfg)
			if err != nil {
				t.Fatalf("%v/%v: predict: %v", scheme, m, err)
			}
			res, err := spatial.Execute(m, q, rels, cfg)
			if err != nil {
				t.Fatalf("%v/%v: execute: %v", scheme, m, err)
			}
			st := &res.Stats

			// Shape: one predicted round per executed job, and Pairs is
			// the sum of the rounds on both sides.
			if pred.Rounds != len(st.Rounds) || len(pred.RoundPairs) != len(st.Rounds) {
				t.Errorf("%v/%v: predicted %d rounds, executed %d", scheme, m, pred.Rounds, len(st.Rounds))
				continue
			}
			var predSum float64
			var actSum int64
			for i, r := range st.Rounds {
				predSum += pred.RoundPairs[i]
				actSum += r.IntermediatePairs
			}
			if pred.Pairs != predSum || st.IntermediatePairs() != actSum {
				t.Errorf("%v/%v: pairs %v / %d are not the sums of their rounds %v / %d",
					scheme, m, pred.Pairs, st.IntermediatePairs(), predSum, actSum)
			}
			// Regression guard on predictor quality: the estimate must
			// stay the right order of magnitude on this fixed workload.
			if m != spatial.BruteForce {
				actual := float64(st.IntermediatePairs())
				if actual <= 0 || pred.Pairs <= 0 {
					t.Fatalf("%v/%v: degenerate workload (pred %v, actual %v)", scheme, m, pred.Pairs, actual)
				}
				if ratio := pred.Pairs / actual; ratio < 0.25 || ratio > 4 {
					t.Errorf("%v/%v: predicted/actual pairs ratio %.2f outside [0.25, 4]", scheme, m, ratio)
				}
			}
		}
	}
}
