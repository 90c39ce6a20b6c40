package mwsjoin

// Benchmarks regenerating the paper's evaluation (one benchmark per
// table, Tables 2–9 — the complete set of reported measurements; the
// paper's figures are illustrative diagrams, not data series), plus
// per-method benchmarks on a fixed workload.
//
// The table benchmarks run each table's full sweep once per iteration
// at a small scale (override with MWSJ_BENCH_UNIT). For the full-scale
// regeneration used in EXPERIMENTS.md run:
//
//	go run ./cmd/benchtables
//
// ReportMetric exposes the paper's §7.8.3 cost metrics per benchmark:
// kv-pairs/op (intermediate pairs) and replicated/op.

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"mwsjoin/internal/bench"
	"mwsjoin/internal/dataset"
)

// benchUnit is the rectangles-per-paper-million scale for the table
// benchmarks.
func benchUnit() int {
	if env := os.Getenv("MWSJ_BENCH_UNIT"); env != "" {
		if v, err := strconv.Atoi(env); err == nil && v > 0 {
			return v
		}
	}
	return 2000
}

// benchTable runs one paper table per iteration and reports aggregate
// cost metrics of the final iteration.
func benchTable(b *testing.B, gen func(bench.Config) (*bench.Table, error)) {
	cfg := bench.Config{Unit: benchUnit(), Seed: 2013, SkipSlow: true}
	b.ReportAllocs()
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := gen(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	var pairs, repl, tuples int64
	for _, row := range last.Rows {
		tuples += row.Tuples
		for _, c := range row.Cells {
			pairs += c.Pairs
			repl += c.Replicated
		}
	}
	b.ReportMetric(float64(pairs), "kv-pairs/op")
	b.ReportMetric(float64(repl), "replicated/op")
	b.ReportMetric(float64(tuples), "tuples/op")
}

func BenchmarkTable2(b *testing.B) { benchTable(b, bench.Table2) }
func BenchmarkTable3(b *testing.B) { benchTable(b, bench.Table3) }
func BenchmarkTable4(b *testing.B) { benchTable(b, bench.Table4) }
func BenchmarkTable5(b *testing.B) { benchTable(b, bench.Table5) }
func BenchmarkTable6(b *testing.B) { benchTable(b, bench.Table6) }
func BenchmarkTable7(b *testing.B) { benchTable(b, bench.Table7) }
func BenchmarkTable8(b *testing.B) { benchTable(b, bench.Table8) }
func BenchmarkTable9(b *testing.B) { benchTable(b, bench.Table9) }

// BenchmarkMethods compares the five methods on one fixed Q2-style
// workload (three synthetic relations at the bench scale), reporting
// the communication metrics per method.
func BenchmarkMethods(b *testing.B) {
	n := benchUnit()
	rels := make([]Relation, 3)
	for i := range rels {
		p := PaperSyntheticParams(n)
		// Density-preserving space (see internal/bench): area scales
		// with the count.
		p.XMax = 100_000 * sqrtRatio(n)
		p.YMax = p.XMax
		rel, err := SyntheticRelation(fmt.Sprintf("R%d", i+1), p, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		rels[i] = rel
	}
	q := NewQuery("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)

	for _, m := range Methods() {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			var stats Stats
			for i := 0; i < b.N; i++ {
				res, err := Run(q, rels, m, nil)
				if err != nil {
					b.Fatal(err)
				}
				stats = res.Stats
			}
			b.ReportMetric(float64(stats.IntermediatePairs()), "kv-pairs/op")
			b.ReportMetric(float64(stats.RectanglesReplicated), "replicated/op")
			b.ReportMetric(float64(stats.OutputTuples), "tuples/op")
		})
	}
}

// BenchmarkLimitMetricAblation compares the Chebyshev (safe default)
// and Euclidean (paper) C-Rep-L limit metrics on a range query — the
// DESIGN.md §3.2 ablation.
func BenchmarkLimitMetricAblation(b *testing.B) {
	n := benchUnit()
	rels := make([]Relation, 3)
	for i := range rels {
		p := PaperSyntheticParams(n)
		p.XMax = 100_000 * sqrtRatio(n)
		p.YMax = p.XMax
		rel, err := SyntheticRelation(fmt.Sprintf("R%d", i+1), p, uint64(20+i))
		if err != nil {
			b.Fatal(err)
		}
		rels[i] = rel
	}
	q := NewQuery("R1", "R2", "R3").Range(0, 1, 100).Range(1, 2, 100)
	for _, euclid := range []bool{false, true} {
		name := "chebyshev"
		if euclid {
			name = "euclidean"
		}
		b.Run(name, func(b *testing.B) {
			var pairs int64
			for i := 0; i < b.N; i++ {
				res, err := Run(q, rels, ControlledReplicateLimit, &Options{EuclideanLimit: euclid})
				if err != nil {
					b.Fatal(err)
				}
				pairs = res.Stats.IntermediatePairs()
			}
			b.ReportMetric(float64(pairs), "kv-pairs/op")
		})
	}
}

// sqrtRatio returns √(n / 1e6), the density-preserving space scale.
func sqrtRatio(n int) float64 {
	return math.Sqrt(float64(n) / 1e6)
}

// BenchmarkAdaptivePartitioningSkew is the PR6 headline comparison at
// bench scale: the uniform grid versus the sample-driven adaptive
// partitioning on the Zipf-clustered skewed workload, reporting the
// C-Rep-L join round's max/median reducer-pair skew (the benchmark's
// grid.reducer_skew metric tracks the adaptive side at full scale).
func BenchmarkAdaptivePartitioningSkew(b *testing.B) {
	n := benchUnit()
	rels := make([]Relation, 3)
	for i, name := range []string{"R1", "R2", "R3"} {
		rel, err := dataset.ZipfClusteredRelation(name, dataset.SkewedDefaults(n), 2013)
		if err != nil {
			b.Fatal(err)
		}
		rels[i] = rel
	}
	q := NewQuery("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	for _, partition := range []string{"uniform", "adaptive"} {
		b.Run(partition, func(b *testing.B) {
			var skew float64
			for i := 0; i < b.N; i++ {
				res, err := Run(q, rels, ControlledReplicateLimit,
					&Options{Partition: partition, CountOnly: true})
				if err != nil {
					b.Fatal(err)
				}
				skew = res.Stats.Rounds[len(res.Stats.Rounds)-1].MaxMedianReducerSkew()
			}
			b.ReportMetric(skew, "max-median-skew")
		})
	}
}
