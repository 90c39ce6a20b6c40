package spatial_test

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// The prediction goldens pin every number the cost model produces to
// what the commit before the per-relation summaries (0c03bd6) computed:
// testdata/prediction_golden.json was written on that commit, where the
// planner still enumerated method × scheme × resolution × join order
// and every Predict call re-validated, re-copied, re-sampled and
// re-joined the relations from scratch. The file is frozen. Neither the
// summaries nor the planner's collapse to one axis may change a number,
// so every golden candidate's raw prediction and cost must reproduce
// bit for bit (math.Float64bits, rendered as hex) through
// Predict under the Config its label names, and the candidates in the
// cost-based join order — the only order the planner still prices —
// through PlanQuery under that Config as well.

const predictionGoldenFile = "testdata/prediction_golden.json"

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// goldenOf renders a prediction's every field, floats as their bits.
func goldenOf(p *spatial.Prediction) string {
	rounds := make([]string, len(p.RoundPairs))
	for i, rp := range p.RoundPairs {
		rounds[i] = bits(rp)
	}
	return fmt.Sprintf("cells=%d rounds=%d [%s] pairs=%s replicated=%s copies=%s tuples=%s",
		p.Cells, p.Rounds, strings.Join(rounds, " "), bits(p.Pairs), bits(p.Replicated), bits(p.Copies), bits(p.Tuples))
}

// goldenCandidate is one priced candidate as the golden file holds it.
type goldenCandidate struct {
	Label string `json:"label"` // method/scheme/reducers, "+order" for the optimized join order
	Raw   string `json:"raw"`
	Cost  string `json:"cost"`
}

type goldenCase struct {
	name string
	q    *query.Query
	rels []spatial.Relation
	cfg  spatial.Config
}

// goldenUniform mirrors the benchmark's uniform relations: the paper's
// synthetic rectangles at the paper's density.
func goldenUniform(tb testing.TB, names []string, n int, seed uint64) []spatial.Relation {
	tb.Helper()
	p := dataset.PaperDefaults(n)
	side := 100_000 * math.Sqrt(float64(n)/1e6)
	p.XMax, p.YMax = side, side
	rels := make([]spatial.Relation, len(names))
	for i, name := range names {
		rects, err := dataset.Synthetic(p, seed+101*uint64(i+1))
		if err != nil {
			tb.Fatal(err)
		}
		rels[i] = spatial.NewRelation(name, rects)
	}
	return rels
}

// goldenZipf mirrors the benchmark's skewed relations: one
// Zipf-clustered draw dealt round-robin into the named relations.
func goldenZipf(tb testing.TB, names []string, total int, seed uint64) []spatial.Relation {
	tb.Helper()
	rects, err := dataset.ZipfClustered(dataset.SkewedDefaults(total), 2013)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 0x7a697066))
	rng.Shuffle(len(rects), func(i, j int) { rects[i], rects[j] = rects[j], rects[i] })
	dealt := make([][]geom.Rect, len(names))
	for i, r := range rects {
		dealt[i%len(names)] = append(dealt[i%len(names)], r)
	}
	rels := make([]spatial.Relation, len(names))
	for i, name := range names {
		rels[i] = spatial.NewRelation(name, dealt[i])
	}
	return rels
}

func goldenCases(tb testing.TB) []goldenCase {
	abc := []string{"a", "b", "c"}
	hybrid := func() *query.Query { return query.New("a", "b", "c").Overlap(0, 1).Range(1, 2, 8) }
	uniSmall := goldenUniform(tb, abc, 3000, 2013)
	uniLarge := goldenUniform(tb, abc, 12000, 7)
	zipfSmall := goldenZipf(tb, abc, 9000, 2013)
	zipfLarge := goldenZipf(tb, abc, 15000, 7)
	four := goldenUniform(tb, []string{"a", "b", "c", "d"}, 2500, 11)

	pinned, err := grid.NewUniform(geom.Rect{X: -10, Y: 5500, L: 5600, B: 5600}, 5, 7)
	if err != nil {
		tb.Fatal(err)
	}
	self := zipfSmall[0]
	few := make([]geom.Rect, 300)
	for i := range few {
		few[i] = uniSmall[1].Items[i].R
	}
	return []goldenCase{
		{name: "uniform-3000/hybrid", q: hybrid(), rels: uniSmall},
		{name: "uniform-12000/hybrid", q: hybrid(), rels: uniLarge},
		{name: "zipf-3000/hybrid", q: hybrid(), rels: zipfSmall},
		{name: "zipf-5000/hybrid", q: hybrid(), rels: zipfLarge},
		{name: "uniform-3000/pair-range", q: query.New("a", "b").Range(0, 1, 25), rels: uniSmall[:2]},
		{name: "zipf-3000/pair-overlap", q: query.New("a", "b").Overlap(0, 1), rels: zipfSmall[:2]},
		{
			// A second edge into slot c (a filter beside the primary) and a
			// dense tail, so the optimized order differs from the default.
			name: "uniform-2500/four-slot",
			q:    query.New("a", "b", "c", "d").Overlap(0, 1).Range(1, 2, 12).Range(0, 2, 40).Overlap(2, 3),
			rels: four,
		},
		{
			name: "zipf-3000/self-join",
			q:    query.New("x", "y", "z").Overlap(0, 1).Range(1, 2, 5),
			rels: []spatial.Relation{self, self, self},
		},
		{
			name: "uniform-3000/empty-middle",
			q:    hybrid(),
			rels: []spatial.Relation{uniSmall[0], spatial.NewRelation("b", nil), uniSmall[2]},
		},
		{
			name: "uniform-3000/below-sample-size",
			q:    hybrid(),
			rels: []spatial.Relation{uniSmall[0], spatial.NewRelation("b", few), uniSmall[2]},
		},
		{name: "uniform-3000/pinned-part", q: hybrid(), rels: uniSmall, cfg: spatial.Config{Part: pinned}},
		{
			// Its golden candidates sit on grids {36, 100}.
			name: "uniform-12000/split-threshold", q: hybrid(), rels: uniLarge,
			cfg: spatial.Config{SplitThreshold: 0.5, LimitMetric: grid.MetricEuclidean},
		},
	}
}

// parseGoldenLabel splits "method/scheme/reducers→cells[+order]".
func parseGoldenLabel(t *testing.T, label string) (m spatial.Method, scheme spatial.PartitionScheme, k, cells int, order bool) {
	t.Helper()
	label, order = strings.CutSuffix(label, "+order")
	parts := strings.Split(label, "/")
	if len(parts) != 3 {
		t.Fatalf("golden label %q", label)
	}
	m, err := spatial.ParseMethod(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	if scheme, err = spatial.ParsePartitionScheme(parts[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(parts[2], "%d→%d", &k, &cells); err != nil {
		t.Fatalf("golden label %q: %v", label, err)
	}
	return m, scheme, k, cells, order
}

func TestPredictionGolden(t *testing.T) {
	js, err := os.ReadFile(predictionGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]goldenCandidate{}
	if err := json.Unmarshal(js, &want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenCases(t) {
		if len(want[tc.name]) == 0 {
			t.Errorf("%s: no golden candidates", tc.name)
		}
		for _, w := range want[tc.name] {
			m, scheme, k, cells, order := parseGoldenLabel(t, w.Label)
			cfg := tc.cfg
			cfg.OptimizeOrder = order
			if cfg.Part == nil {
				cfg.Scheme, cfg.Reducers = scheme, k
			}
			pred, err := spatial.Predict(m, tc.q, tc.rels, cfg)
			if err != nil {
				t.Fatalf("%s: Predict %s: %v", tc.name, w.Label, err)
			}
			check := func(via string, pred *spatial.Prediction, cost float64) {
				if pred.Cells != cells || goldenOf(pred) != w.Raw {
					t.Errorf("%s: %s %s raw\n got  %s\n want %s", tc.name, via, w.Label, goldenOf(pred), w.Raw)
				}
				if bits(cost) != w.Cost {
					t.Errorf("%s: %s %s cost %s, want %s", tc.name, via, w.Label, bits(cost), w.Cost)
				}
			}
			check("Predict", pred, spatial.PlanCost(pred))
			if order {
				plan, err := spatial.PlanQuery(tc.q, tc.rels, cfg, spatial.PlannerOptions{Methods: []spatial.Method{m}})
				if err != nil {
					t.Fatalf("%s: PlanQuery %s: %v", tc.name, w.Label, err)
				}
				check("PlanQuery", plan.Prediction, plan.Cost)
			}
		}
	}
}
