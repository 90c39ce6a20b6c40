package mapreduce

import (
	"fmt"
	"testing"
)

// benchPairs synthesises one unsorted run of n pairs whose keys cycle
// pseudo-randomly over keyspace distinct values.
func benchPairs(n, keyspace, salt int) []pair[int64, int64] {
	ps := make([]pair[int64, int64], n)
	for i := range ps {
		k := (int64(i)*2654435761 + int64(salt)*40503) % int64(keyspace)
		if k < 0 {
			k += int64(keyspace)
		}
		ps[i] = pair[int64, int64]{key: k, val: int64(i)}
	}
	return ps
}

// sumCombine folds a key group to a single value — a classic
// Reduce-equivalent combiner for associative aggregation. Returning a
// prefix of the scratch slice (which the engine copies before reuse)
// keeps the combiner allocation-free.
func sumCombine(_ int64, vs []int64) []int64 {
	var sum int64
	for _, v := range vs {
		sum += v
	}
	vs[0] = sum
	return vs[:1]
}

// BenchmarkFinalizeRun isolates the map-side work the pipeline added:
// the key sort (radix via the integer-key ranker, or the comparison
// fallback), the optional combiner pass, and the byte-accounting fold
// over one mapper's per-reducer run.
func BenchmarkFinalizeRun(b *testing.B) {
	const n, keyspace = 1 << 16, 1 << 11
	pb := func(k, v int64) int { return 16 }
	rk := keyRanker[int64]()
	for _, bc := range []struct {
		name    string
		rank    func(int64) uint64
		combine func(int64, []int64) []int64
		bytes   func(int64, int64) int
	}{
		{"radix", rk, nil, nil},
		{"radix+bytes", rk, nil, pb},
		{"radix+combine", rk, sumCombine, nil},
		{"radix+combine+bytes", rk, sumCombine, pb},
		{"comparison-fallback", nil, nil, nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			src := benchPairs(n, keyspace, 1)
			pool := NewBufferPool()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run := getBufLen[pair[int64, int64]](&pool.pairs, n)
				copy(run, src)
				batch := pairBatch[int64, int64]{pairs: run}
				finalizeRun(&batch, bc.rank, bc.combine, bc.bytes, pool)
				putBuf(&pool.pairs, batch.pairs)
			}
		})
	}
}

// BenchmarkMergeRuns isolates the shuffle's per-reducer merge of
// pre-sorted mapper runs.
func BenchmarkMergeRuns(b *testing.B) {
	for _, nruns := range []int{2, 8} {
		b.Run(fmt.Sprintf("runs=%d", nruns), func(b *testing.B) {
			const per = 1 << 14
			pool := NewBufferPool()
			sorted := make([]pairBatch[int64, int64], nruns)
			for m := range sorted {
				sorted[m].pairs = benchPairs(per, 1<<11, m)
				finalizeRun(&sorted[m], keyRanker[int64](), nil, nil, pool)
			}
			batches := make([][]pairBatch[int64, int64], nruns)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The merge consumes and recycles its runs, so every
				// iteration merges fresh copies of the sorted ones.
				for m := range batches {
					run := getBufLen[pair[int64, int64]](&pool.pairs, per)
					copy(run, sorted[m].pairs)
					batches[m] = []pairBatch[int64, int64]{{pairs: run}}
				}
				in := mergeRuns(batches, 0, nruns*per, pool)
				putBuf(&pool.keys, in.keys)
				putBuf(&pool.vals, in.vals)
			}
		})
	}
}

// benchEngineJob builds a shuffle-heavy aggregation job: records input
// rows, 8 pairs per row hashed over a keyspace-value key space.
func benchEngineJob(reducers, par, keyspace int, withBytes, withCombine bool) (*Job[int64, int64, int64, int64], func(int) []int64) {
	job := &Job[int64, int64, int64, int64]{
		Config: Config{Name: "bench", NumReducers: reducers, NumMappers: 8, Parallelism: par},
		Map: func(x int64, emit func(int64, int64)) error {
			for s := int64(0); s < 8; s++ {
				k := (x*2654435761 + s*40503) % int64(keyspace)
				if k < 0 {
					k += int64(keyspace)
				}
				emit(k, x)
			}
			return nil
		},
		Partition: func(k int64, n int) int { return int(k % int64(n)) },
		Reduce: func(k int64, vs []int64, emit func(int64)) error {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			emit(sum)
			return nil
		},
	}
	if withBytes {
		job.PairBytes = func(k, v int64) int { return 16 }
	}
	if withCombine {
		job.Combine = sumCombine
	}
	input := func(records int) []int64 {
		in := make([]int64, records)
		for i := range in {
			in[i] = int64(i)
		}
		return in
	}
	return job, input
}

// BenchmarkEngine sweeps the full pipeline end to end over pairs ×
// reducers × parallelism, with and without PairBytes and Combine, at
// moderate key cardinality (100003 distinct keys).
func BenchmarkEngine(b *testing.B) {
	for _, records := range []int{1 << 14, 1 << 17} { // 128k / 1M pairs
		for _, reducers := range []int{16, 64} {
			for _, par := range []int{1, 8} {
				for _, variant := range []string{"plain", "bytes", "combine"} {
					name := fmt.Sprintf("pairs=%d/reducers=%d/par=%d/%s", records*8, reducers, par, variant)
					b.Run(name, func(b *testing.B) {
						job, mkInput := benchEngineJob(reducers, par, 100003, variant == "bytes", variant == "combine")
						input := mkInput(records)
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if _, _, err := job.Run(input); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}
