package spatial_test

import (
	"testing"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// servedShapes are the two relation sets the served_mix workload plans
// over at the benchmark's unit 50,000: three uniform relations of
// 10,000 and one Zipf-clustered draw of 15,000 dealt into three.
func servedShapes(tb testing.TB) map[string][]spatial.Relation {
	names := []string{"a", "b", "c"}
	return map[string][]spatial.Relation{
		"uniform": goldenUniform(tb, names, 10_000, 2013),
		"zipf":    goldenZipf(tb, names, 15_000, 2013),
	}
}

// servedMiss is the k-th member of served_mix's miss family: the same
// join with a range no earlier query used, so nothing keyed by the
// query's text or its d can answer it.
func servedMiss(k int) *query.Query {
	return query.New("a", "b", "c").Overlap(0, 1).Range(1, 2, 8+float64(k)*1e-9)
}

// fresh rebuilds the relations from their rectangles, so nothing a
// previous plan left on them survives.
func fresh(rels []spatial.Relation) []spatial.Relation {
	out := make([]spatial.Relation, len(rels))
	for i, rel := range rels {
		rects := make([]geom.Rect, len(rel.Items))
		for j, it := range rel.Items {
			rects[j] = it.R
		}
		out[i] = spatial.NewRelation(rel.Name, rects)
	}
	return out
}

var planSink *spatial.Plan

// BenchmarkPlanQuery ranks the four methods on the default grid the way
// an "auto" submission does. cold plans over relations nothing
// has summarised yet (the first query after a registration); warm plans
// a never-repeated miss over relations an earlier query has planned on.
func BenchmarkPlanQuery(b *testing.B) {
	for shape, rels := range servedShapes(b) {
		b.Run(shape+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rels := fresh(rels)
				b.StartTimer()
				plan, err := spatial.PlanQuery(servedMiss(i), rels, spatial.Config{}, spatial.PlannerOptions{})
				if err != nil {
					b.Fatal(err)
				}
				planSink = plan
			}
		})
		b.Run(shape+"/warm", func(b *testing.B) {
			if _, err := spatial.PlanQuery(servedMiss(-1), rels, spatial.Config{}, spatial.PlannerOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := spatial.PlanQuery(servedMiss(i), rels, spatial.Config{}, spatial.PlannerOptions{})
				if err != nil {
					b.Fatal(err)
				}
				planSink = plan
			}
		})
	}
}
