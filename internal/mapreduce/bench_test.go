package mapreduce

import (
	"fmt"
	"testing"
)

// benchEngineJob builds a shuffle-heavy aggregation job: records input
// rows, 8 pairs per row hashed over the reducers.
func benchEngineJob(reducers, par int, withBytes bool) (*Job[int64, int64, int64, int64], func(int) []int64) {
	job := &Job[int64, int64, int64, int64]{
		Config: Config{Name: "bench", NumReducers: reducers, NumMappers: 8, Parallelism: par},
		Map: func(x int64, emit func(int64, int64)) error {
			for s := int64(0); s < 8; s++ {
				emit((x*2654435761+s*40503)%int64(reducers), x)
			}
			return nil
		},
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
// reducers × parallelism, with and without PairBytes.
func BenchmarkEngine(b *testing.B) {
	for _, records := range []int{1 << 14, 1 << 17} { // 128k / 1M pairs
		for _, reducers := range []int{16, 64} {
			for _, par := range []int{1, 8} {
				for _, variant := range []string{"plain", "bytes"} {
					name := fmt.Sprintf("pairs=%d/reducers=%d/par=%d/%s", records*8, reducers, par, variant)
					b.Run(name, func(b *testing.B) {
						job, mkInput := benchEngineJob(reducers, par, variant == "bytes")
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
