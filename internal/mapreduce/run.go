package mapreduce

import "unsafe"

// chunkBytes sizes the chunks a run's values live in: small enough that
// a run of a few values wastes little, large enough that a run of
// thousands takes few.
const chunkBytes = 4 << 10

// run is one map attempt's values for one reducer, or one reduce
// attempt's outputs, in emit order. The values live in fixed-size pooled
// chunks, every one full but the last, so a growing run is never copied;
// the shuffle copies each map value once, into its reducer's input, and
// the job copies each output once, into its result.
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
// holds them. Each is cleared first, so a pooled chunk keeps nothing
// its values pointed to alive — a result's ID slab, say. The run keeps
// its emptied chunk list.
func (b *run[V]) recycle(pool *BufferPool) {
	for _, c := range b.chunks {
		clear(c)
		putBuf(&pool.chunks, c)
	}
	clear(b.chunks)
	b.chunks, b.n = b.chunks[:0], 0
}

// getRuns returns n empty runs for a map task: an array a finished
// shuffle handed back, its runs' chunk lists kept, or a fresh one. The
// arrays are task scratch, kept with the working sets.
func getRuns[V any](pool *BufferPool, n int) []run[V] {
	rs := getBufLen[run[V]](&pool.sets, n)
	for r := range rs {
		clear(rs[r].chunks)
		rs[r] = run[V]{chunks: rs[r].chunks[:0]}
	}
	return rs
}

// drain copies the run's values, in order, to the front of dst, recycles
// its chunks and returns the rest of dst.
func (b *run[V]) drain(dst []V, pool *BufferPool) []V {
	for _, c := range b.chunks {
		dst = dst[copy(dst, c):]
	}
	b.recycle(pool)
	return dst
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
		dst = runs[m][r].drain(dst, pool)
	}
}

// gatherOutput assembles a job's output from its reducers' runs: one
// slice of exactly their total length (Slab from slabs, a worker's
// pool, or fresh when slabs is nil), holding them in reducer order,
// each run's chunks recycled once copied. It is nil when no reducer
// emitted.
func gatherOutput[O any](runs []run[O], pool, slabs *BufferPool) []O {
	total := 0
	for r := range runs {
		total += runs[r].n
	}
	if total == 0 {
		return nil
	}
	out := Slab[O](slabs, total)
	at := out
	for r := range runs {
		at = runs[r].drain(at, pool)
	}
	return out
}

// recycleRuns returns runs nothing will read to the pool — a discarded
// map attempt's, or the outputs of a job that failed: their attempts
// have returned, so the engine holds the only reference.
func recycleRuns[V any](pool *BufferPool, runs []run[V]) {
	for r := range runs {
		runs[r].recycle(pool)
	}
}
