package spatial

import (
	"math/rand/v2"
	"testing"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
)

// BenchmarkStageRows is relation staging, the engine's side of the
// benchmark's dfs.stage_ms: stageInputs writing three 50,000-rectangle
// relations (cascade_uniform's shape) into a fresh FS, in ns a row.
//
//   - fresh: relations no execution has seen, as a cluster worker's
//     shipped ones are: each iteration summarises them and lays their
//     rows out in sweep order before the write;
//   - summarized: relations whose rows are laid out, what every later
//     query pays: the write of each one's buffer by reference.
func BenchmarkStageRows(b *testing.B) {
	const n, side = 50_000, 22_360
	rng := rand.New(rand.NewPCG(2013, 0x7374))
	rels := make([]Relation, 3)
	for i, name := range []string{"R1", "R2", "R3"} {
		rects := make([]geom.Rect, n)
		for k := range rects {
			rects[k] = geom.Rect{X: rng.Float64() * side, Y: rng.Float64() * side, L: 100 * rng.Float64(), B: 100 * rng.Float64()}
		}
		rels[i] = NewRelation(name, rects)
	}
	stage := func(b *testing.B, rels []Relation) {
		e := &executor{rels: rels, fs: dfs.New(0)}
		for _, rel := range rels {
			e.stats = append(e.stats, rel.stats())
		}
		if err := e.stageInputs(); err != nil {
			b.Fatal(err)
		}
	}
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rels)*n), "ns/row")
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fresh := make([]Relation, len(rels))
			for k, rel := range rels {
				fresh[k] = Relation{Name: rel.Name, Items: rel.Items, sum: &relSummary{}}
			}
			stage(b, fresh)
		}
		perRow(b)
	})
	b.Run("summarized", func(b *testing.B) {
		stage(b, rels)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stage(b, rels)
		}
		perRow(b)
	})
}
