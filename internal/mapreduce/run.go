package mapreduce

import "unsafe"

// chunkBytes sizes the chunks a run's values live in: small enough that
// a run of a few values wastes little, large enough that a run of
// thousands takes few.
const chunkBytes = 4 << 10

// run is one map attempt's values for one reducer, in emit order. The
// values live in fixed-size pooled chunks, every one full but the last,
// so a growing run is never copied; the shuffle copies each value once,
// into its reducer's input.
type run[V any] struct {
	chunks [][]V
	n      int   // values held
	bytes  int64 // Σ PairBytes over the run; 0 when PairBytes is nil
}

// add appends v, starting a chunk when the last one is full.
func (b *run[V]) add(v V, pool *BufferPool) {
	if k := len(b.chunks) - 1; k >= 0 && len(b.chunks[k]) < cap(b.chunks[k]) {
		b.chunks[k] = append(b.chunks[k], v)
	} else {
		b.chunks = append(b.chunks, append(getBuf[V](&pool.chunks, chunkLen(v)), v))
	}
	b.n++
}

// chunkLen is the capacity of a chunk of values like v.
func chunkLen[V any](v V) int {
	return chunkBytes / max(int(unsafe.Sizeof(v)), 1)
}

// recycle hands the run's chunks back to the pool, once nothing else
// holds them.
func (b *run[V]) recycle(pool *BufferPool) {
	for _, c := range b.chunks {
		putBuf(&pool.chunks, c)
	}
	b.chunks, b.n = nil, 0
}

// priceRun sums PairBytes over one map attempt's run for reducer key,
// inside the map task.
func priceRun[K ReducerKey, V any](b *run[V], key K, pairBytes func(K, V) int) {
	var sum int64
	for _, c := range b.chunks {
		for i := range c {
			sum += int64(pairBytes(key, c[i]))
		}
	}
	b.bytes = sum
}

// gatherInput fills dst, which holds exactly reducer r's values, with
// its runs in mapper order, recycling each run's chunks once copied.
func gatherInput[V any](dst []V, runs [][]run[V], r int, pool *BufferPool) {
	for m := range runs {
		b := &runs[m][r]
		at := dst[:b.n]
		for _, c := range b.chunks {
			at = at[copy(at, c):]
		}
		dst = dst[b.n:]
		b.recycle(pool)
	}
}

// recycleRuns returns a discarded attempt's chunks to the pool: the
// failed attempt has returned, so the engine holds the only reference.
func recycleRuns[V any](pool *BufferPool, runs []run[V]) {
	for r := range runs {
		runs[r].recycle(pool)
	}
}
