//go:build go1.24

// The weak package arrived in Go 1.24; the module's go line is older, so
// this test builds only with a toolchain that has it.

package mapreduce

import (
	"runtime"
	"testing"
	"weak"
)

// TestPooledOutputChunksPinNothing: a job's output chunks go back to a
// shared pool once its output is assembled, cleared, so they keep
// nothing the outputs pointed to alive. Each reducer emits tuples whose
// IDs are views into one slab of its own, as the cascade's page segments
// point into its pages; once the result
// is dropped every slab is collectable, while the chunks that held the
// tuples still sit in the pool.
func TestPooledOutputChunksPinNothing(t *testing.T) {
	type tuple struct{ IDs []int32 }
	const nr, perReducer = 4, 500 // three chunks of tuples per reducer
	pool := NewBufferPool()
	job := &Job[int, int, int, tuple]{
		Config: Config{Name: "ids", NumReducers: nr, NumMappers: 2, Parallelism: 2, Pool: pool},
		Map: func(r int, emit func(int, int)) error {
			emit(r, r)
			return nil
		},
		Reduce: func(r int, _ []int, emit func(tuple)) error {
			slab := make([]int32, 3*perReducer)
			for i := 0; i < perReducer; i++ {
				ids := slab[3*i : 3*i+3 : 3*i+3]
				ids[0] = int32(r)
				emit(tuple{IDs: ids})
			}
			return nil
		},
	}
	out, _, err := job.Run([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	slabs := make([]weak.Pointer[int32], nr)
	for r := range slabs {
		slabs[r] = weak.Make(&out[r*perReducer].IDs[0])
	}
	pooled := func() int { return len(pool.chunks.stack(typeToken[tuple]{}).entries) }
	want := nr * ((perReducer + chunkLen(tuple{}) - 1) / chunkLen(tuple{}))
	if got := pooled(); got != want {
		t.Fatalf("the pool holds %d chunks of tuples after the job, want its %d", got, want)
	}
	out = nil
	runtime.GC()
	runtime.GC()
	for r, p := range slabs {
		if p.Value() != nil {
			t.Errorf("reducer %d's ID slab outlives the dropped result", r)
		}
	}
	if got := pooled(); got != want {
		t.Errorf("the pool holds %d chunks of tuples after the collection, want %d", got, want)
	}
	runtime.KeepAlive(pool)
}
