package mapreduce

import (
	"cmp"
	"math/bits"
	"reflect"
)

// signBit flips a two's-complement sign so signed keys rank in value
// order as uint64.
const signBit = 1 << 63

// keyRanker returns an order-preserving rank function for K — rank(a)
// < rank(b) exactly when a < b — when K is of integer kind, and nil
// otherwise. Integer keys are by far the engine's common case (grid
// cell IDs, record IDs), and a uint64 rank unlocks the radix run sort
// that makes the map-side sort linear. Unnamed integer types resolve
// to a direct conversion via a dynamic assertion; named types (e.g.
// grid.CellID) fall back to a per-element reflect extraction chosen
// after a single Kind probe.
func keyRanker[K cmp.Ordered]() func(K) uint64 {
	if f, ok := any(func(k int) uint64 { return uint64(k) ^ signBit }).(func(K) uint64); ok {
		return f
	}
	if f, ok := any(func(k int8) uint64 { return uint64(k) ^ signBit }).(func(K) uint64); ok {
		return f
	}
	if f, ok := any(func(k int16) uint64 { return uint64(k) ^ signBit }).(func(K) uint64); ok {
		return f
	}
	if f, ok := any(func(k int32) uint64 { return uint64(k) ^ signBit }).(func(K) uint64); ok {
		return f
	}
	if f, ok := any(func(k int64) uint64 { return uint64(k) ^ signBit }).(func(K) uint64); ok {
		return f
	}
	if f, ok := any(func(k uint) uint64 { return uint64(k) }).(func(K) uint64); ok {
		return f
	}
	if f, ok := any(func(k uint8) uint64 { return uint64(k) }).(func(K) uint64); ok {
		return f
	}
	if f, ok := any(func(k uint16) uint64 { return uint64(k) }).(func(K) uint64); ok {
		return f
	}
	if f, ok := any(func(k uint32) uint64 { return uint64(k) }).(func(K) uint64); ok {
		return f
	}
	if f, ok := any(func(k uint64) uint64 { return k }).(func(K) uint64); ok {
		return f
	}
	if f, ok := any(func(k uintptr) uint64 { return uint64(k) }).(func(K) uint64); ok {
		return f
	}
	switch reflect.TypeOf((*K)(nil)).Elem().Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(k K) uint64 { return uint64(reflect.ValueOf(k).Int()) ^ signBit }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return func(k K) uint64 { return reflect.ValueOf(k).Uint() }
	}
	return nil
}

// radixSortPairs stable-sorts one run by key rank with an LSD radix
// sort whose digit width adapts to the run's rank span, so narrow key
// ranges (a handful of cells in one reducer) cost a single counting
// pass and already-sorted runs cost only the scan that discovers them.
// Returns the sorted slice, which may be a different (possibly pooled)
// buffer than the input; the scratch buffers — including whichever of
// ps/tmp is not returned — are recycled before returning, so with a
// warm pool the steady-state sort allocates nothing.
func radixSortPairs[K cmp.Ordered, V any](ps []pair[K, V], rank func(K) uint64, pool *BufferPool) []pair[K, V] {
	n := len(ps)
	if n < 2 {
		return ps
	}
	ranks := getBufLen[uint64](&pool.u64s, n)
	lo, hi := rank(ps[0].key), rank(ps[0].key)
	sorted := true
	for i := range ps {
		r := rank(ps[i].key)
		ranks[i] = r
		if r < ranks[max(i-1, 0)] {
			sorted = false
		}
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if sorted {
		putBuf(&pool.u64s, ranks)
		return ps
	}
	span := hi - lo
	nbits := bits.Len64(span)
	// Widest digit ≤ 11 bits keeps the count array (≤ 2048 entries)
	// cache-resident even for small runs.
	passes := (nbits + 10) / 11
	width := (nbits + passes - 1) / passes
	mask := uint64(1)<<width - 1

	tmp := getBufLen[pair[K, V]](&pool.pairs, n)
	tmpRanks := getBufLen[uint64](&pool.u64s, n)
	counts := getBufLen[uint32](&pool.u32s, 1<<width)
	for p := 0; p < passes; p++ {
		shift := p * width
		clear(counts)
		for i := range ranks {
			counts[(ranks[i]-lo)>>shift&mask]++
		}
		var sum uint32
		for d := range counts {
			c := counts[d]
			counts[d] = sum
			sum += c
		}
		for i := range ps {
			d := (ranks[i] - lo) >> shift & mask
			tmp[counts[d]] = ps[i]
			tmpRanks[counts[d]] = ranks[i]
			counts[d]++
		}
		ps, tmp = tmp, ps
		ranks, tmpRanks = tmpRanks, ranks
	}
	// After the swaps, tmp is whichever buffer does not hold the result.
	putBuf(&pool.pairs, tmp)
	putBuf(&pool.u64s, ranks)
	putBuf(&pool.u64s, tmpRanks)
	putBuf(&pool.u32s, counts)
	return ps
}
