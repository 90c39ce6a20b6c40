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
	chunks     [][]V
	n          int   // values held, or spilled
	bytes      int64 // Σ PairBytes over the run; 0 when PairBytes is nil
	combineIn  int64 // values fed to Combine
	combineOut int64 // values Combine kept
	// spill names the local scratch file holding the run once it
	// exceeded Config.SpillBudget; chunks is then nil and spillBytes is
	// the file's size.
	spill      string
	spillBytes int64
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
// holds them. A run Combine rewrote holds one array of any size, which
// is left to the collector: every pooled chunk is chunkBytes.
func (b *run[V]) recycle(pool *BufferPool) {
	var v V
	for _, c := range b.chunks {
		if cap(c) == chunkLen(v) {
			putBuf(&pool.chunks, c)
		}
	}
	b.chunks, b.n = nil, 0
}

// finalizeRun readies one map attempt's run for reducer key, inside the
// map task: Combine, when set, once over the whole run, then the
// PairBytes accounting.
func finalizeRun[K ReducerKey, V any](b *run[V], key K, combine func(K, []V) []V, pairBytes func(K, V) int, pool *BufferPool) {
	if b.n == 0 {
		return
	}
	if combine != nil {
		b.combineIn = int64(b.n)
		vs := b.chunks[0]
		if len(b.chunks) > 1 {
			// Combine sees the run as one slice.
			vs = make([]V, 0, b.n)
			for _, c := range b.chunks {
				vs = append(vs, c...)
			}
			b.recycle(pool)
		}
		// The run is what Combine returned, which the engine now owns.
		vs = combine(key, vs)
		b.combineOut = int64(len(vs))
		b.chunks, b.n = append(b.chunks[:0], vs), len(vs)
	}
	if pairBytes != nil {
		var sum int64
		for _, c := range b.chunks {
			for i := range c {
				sum += int64(pairBytes(key, c[i]))
			}
		}
		b.bytes = sum
	}
}

// gatherInput fills dst, which holds exactly reducer key's values, with
// its runs in mapper order: each in-memory run is copied and its chunks
// recycled, each spilled run is read back in place.
func gatherInput[K ReducerKey, V any](dst []V, runs [][]run[V], key K, fs spillStore, decode func([]byte) (K, V, error), pool *BufferPool) error {
	for m := range runs {
		b := &runs[m][key]
		n := b.n
		if b.spill != "" {
			if err := readSpill(b, key, dst[:n], fs, decode); err != nil {
				return err
			}
		} else {
			at := dst
			for _, c := range b.chunks {
				at = at[copy(at, c):]
			}
			b.recycle(pool)
		}
		dst = dst[n:]
	}
	return nil
}

// recycleRuns returns a discarded attempt's chunks to the pool and
// removes any runs it spilled: the failed attempt has returned, so the
// engine holds the only reference.
func recycleRuns[V any](pool *BufferPool, fs spillStore, runs []run[V]) {
	for r := range runs {
		runs[r].recycle(pool)
		if runs[r].spill != "" {
			fs.Delete(runs[r].spill)
			runs[r].spill = ""
		}
	}
}
