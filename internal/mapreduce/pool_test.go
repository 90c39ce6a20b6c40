package mapreduce

import "testing"

// TestPoolRetainsAtMostCap: a job whose map chunks and reducer-input
// slab each outgrow MaxPoolBytes leaves its pool holding at most the
// cap — chunks up to it, the slab not at all — and the pool serves the
// next job from what it kept.
func TestPoolRetainsAtMostCap(t *testing.T) {
	type wide [64]byte
	n := MaxPoolBytes/64 + MaxPoolBytes/256 // 1.25 caps of values
	pool := NewBufferPool()
	job := &Job[int, int, wide, int]{
		Config: Config{Name: "giant", NumReducers: 2, NumMappers: 2, Parallelism: 2, Pool: pool},
		Map: func(x int, emit func(int, wide)) error {
			emit(x%2, wide{byte(x)})
			return nil
		},
		Reduce: func(_ int, vs []wide, emit func(int)) error {
			emit(len(vs))
			return nil
		},
	}
	read := func(lo, hi int, yield func(int) error) error {
		for x := lo; x < hi; x++ {
			if err := yield(x); err != nil {
				return err
			}
		}
		return nil
	}
	out, _, err := job.RunSplits(n, read)
	if err != nil {
		t.Fatal(err)
	}
	if out[0]+out[1] != n {
		t.Fatalf("reducers saw %d values, want %d", out[0]+out[1], n)
	}
	if got := pool.Retained(); got > MaxPoolBytes || got < MaxPoolBytes/2 {
		t.Errorf("after the giant job the pool retains %d bytes, want at most the cap %d and at least half of it", got, MaxPoolBytes)
	}
	if s := recycled[wide](&pool.vals, 1); s != nil {
		t.Errorf("the pool kept a %d-byte reducer-input slab, larger than its cap", cap(s)*64)
	}
	if _, _, err := job.RunSplits(1000, read); err != nil {
		t.Fatal(err)
	}
	if got := pool.Retained(); got > MaxPoolBytes {
		t.Errorf("after a second job the pool retains %d bytes, cap %d", got, MaxPoolBytes)
	}
}
