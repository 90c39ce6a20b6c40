package mapreduce

import "cmp"

// mergeRuns merges the mapper-sorted runs destined for reducer r into
// one key-sorted reducer input. Equal keys keep mapper-index order (and
// emit order within a mapper, by run-sort stability), so a key's values
// arrive in (mapper index, emit order) — exactly the order the serial
// mapper-order concatenation used to deliver. total must be the summed
// length of the runs.
//
// The merge is a pairwise tree over adjacent runs rather than a k-way
// heap: each level is a tight two-run merge with one comparison per
// output pair and sequential access, which beats a heap's per-pair
// sift-down for the small fan-ins (≤ NumMappers) the engine produces.
// Merging adjacent runs with left preference on ties preserves mapper
// order at every level.
//
// Every run the merge consumes — the mappers' level-0 runs and the
// tree's own intermediates — is dead the moment its two-run merge
// completes, so it is returned to the pool right there; the final
// key/value arrays come from the pool too.
func mergeRuns[K cmp.Ordered, V any](batches [][]pairBatch[K, V], r, total int, pool *BufferPool) reducerInput[K, V] {
	if total == 0 {
		return reducerInput[K, V]{}
	}
	// runs keeps mapper order, so adjacency encodes the tie-break.
	runs := make([][]pair[K, V], 0, len(batches))
	for m := range batches {
		if ps := batches[m][r].pairs; len(ps) > 0 {
			runs = append(runs, ps)
		}
	}
	for len(runs) > 2 {
		half := runs[:0]
		for i := 0; i+1 < len(runs); i += 2 {
			half = append(half, merge2(runs[i], runs[i+1], pool))
		}
		if len(runs)%2 == 1 {
			half = append(half, runs[len(runs)-1])
		}
		runs = half
	}

	keys := getBuf[K](&pool.keys, total)
	vals := getBuf[V](&pool.vals, total)
	if len(runs) == 1 {
		for i := range runs[0] {
			keys = append(keys, runs[0][i].key)
			vals = append(vals, runs[0][i].val)
		}
		putBuf(&pool.pairs, runs[0])
		return reducerInput[K, V]{keys: keys, vals: vals}
	}
	// Final level writes straight into the key/value layout the reduce
	// phase consumes.
	a, b := runs[0], runs[1]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if cmp.Compare(a[i].key, b[j].key) <= 0 {
			keys = append(keys, a[i].key)
			vals = append(vals, a[i].val)
			i++
		} else {
			keys = append(keys, b[j].key)
			vals = append(vals, b[j].val)
			j++
		}
	}
	for ; i < len(a); i++ {
		keys = append(keys, a[i].key)
		vals = append(vals, a[i].val)
	}
	for ; j < len(b); j++ {
		keys = append(keys, b[j].key)
		vals = append(vals, b[j].val)
	}
	putBuf(&pool.pairs, a)
	putBuf(&pool.pairs, b)
	return reducerInput[K, V]{keys: keys, vals: vals}
}

// merge2 merges two key-sorted runs, preferring a on ties so earlier
// mappers stay first. Both inputs are consumed and recycled.
func merge2[K cmp.Ordered, V any](a, b []pair[K, V], pool *BufferPool) []pair[K, V] {
	out := getBuf[pair[K, V]](&pool.pairs, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if cmp.Compare(a[i].key, b[j].key) <= 0 {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	putBuf(&pool.pairs, a)
	putBuf(&pool.pairs, b)
	return out
}
