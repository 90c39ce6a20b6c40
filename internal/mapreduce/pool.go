package mapreduce

import (
	"sync"
	"unsafe"
)

// BufferPool recycles the engine's large scratch buffers across jobs
// and task attempts: the map side's run chunks and the slab a job's
// reducer inputs are shuffled into. At paper scale those buffers
// dominate the allocation profile — a pool turns the per-job churn
// into a handful of steady-state arrays. Every job runs on one; pass a
// shared pool via Config.Pool so it serves every job of an execution.
//
// Lifecycle rules (DESIGN.md §4g):
//
//   - A buffer is recycled only where the engine holds the sole live
//     reference: the chunks of discarded fault-injection attempts, of
//     runs the shuffle has copied, spilled or shipped, and the reducer
//     input slab after the whole reduce phase — every retry included —
//     has committed.
//   - Recycled buffers never alias committed output: reducer outputs
//     are freshly appended []O slices, and on a shared pool Reduce
//     implementations must not retain the values slice (or subslices
//     of it) after returning — copy what they keep, which every
//     reducer in this repository already does.
//   - Pools are type-erased (free lists of arrays tagged with their
//     element type): a Get whose element type does not match the
//     requesting job's V is dropped on the floor, so one pool safely serves
//     heterogeneous job pipelines; the pool simply converges to the
//     types that dominate. A Get that names a size is likewise served
//     only by a buffer at least that large, so the pool converges to
//     the workload's sizes instead of growing small arrays.
//   - A double-Put of the same buffer is dropped, not retained twice:
//     each free list remembers the backing-array identity of what it
//     holds, so two later Gets can never return aliasing slices whose
//     appends would corrupt each other's recycled runs.
//
// The free lists are deliberately NOT sync.Pools: a paper-scale shuffle
// allocates hundreds of megabytes per job, so the garbage collector
// runs many cycles mid-job and would evict sync.Pool entries between
// the shuffle's Put and the next job's map-phase Get — measured on the
// 1M-pair bench, that eviction forfeits most of the pooling win.
// Recycling here is explicit (sole-reference points only), so plain
// mutex-guarded stacks are safe, and each list is bounded so a one-off
// giant job cannot pin its scratch forever.
//
// BufferPool is safe for concurrent use. A job whose Config.Pool is nil
// runs on a private pool of its own.
type BufferPool struct {
	chunks freeList // []V — map-side run chunks, chunkBytes each
	vals   freeList // []V — a job's shuffled reducer inputs, one slab
}

// maxPoolItems bounds each free list: at most this many buffers are
// retained per kind (a shuffle's steady state is a few chunks per live
// (mapper, reducer) run, below the bound at benchmark scale); further
// Puts are dropped for the collector.
const maxPoolItems = 2048

// freeList is a bounded LIFO of recycled arrays, each held as its
// element type's token, its address and its capacity — not as a boxed
// slice, so a Put allocates nothing. The address doubles as the array's
// identity, which lets Put reject an array the list already holds (a
// double-Put would otherwise make two later Gets alias the same memory).
type freeList struct {
	mu    sync.Mutex
	items []poolEntry
	held  map[unsafe.Pointer]struct{} // arrays currently in items
}

type poolEntry struct {
	elem any // typeToken of the element type
	data unsafe.Pointer
	cap  int
}

// typeToken[T]{} stored in an interface identifies T: two such
// interfaces are equal exactly when their element types are, and
// storing one allocates nothing.
type typeToken[T any] struct{}

func (f *freeList) get() poolEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	if n == 0 {
		return poolEntry{}
	}
	e := f.items[n-1]
	f.items[n-1] = poolEntry{}
	f.items = f.items[:n-1]
	delete(f.held, e.data)
	return e
}

func (f *freeList) put(e poolEntry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.held[e.data]; dup || len(f.items) >= maxPoolItems {
		return
	}
	if f.held == nil {
		f.held = make(map[unsafe.Pointer]struct{})
	}
	f.held[e.data] = struct{}{}
	f.items = append(f.items, e)
}

// NewBufferPool returns an empty pool.
func NewBufferPool() *BufferPool { return &BufferPool{} }

// recycled returns the array f pops, as a zero-length slice, if it holds
// elements of type T and at least capacity of them; otherwise nil, and
// the popped array is left to the collector.
func recycled[T any](f *freeList, capacity int) []T {
	if e := f.get(); e.elem == any(typeToken[T]{}) && e.cap >= capacity {
		return unsafe.Slice((*T)(e.data), e.cap)[:0]
	}
	return nil
}

// getBuf returns an empty slice for appending with room for capacity
// elements: the array f recycles if it is one of T that large, a fresh
// one otherwise.
func getBuf[T any](f *freeList, capacity int) []T {
	if s := recycled[T](f, capacity); s != nil {
		return s
	}
	return make([]T, 0, capacity)
}

// getBufLen returns a length-n slice for indexed writes; its contents
// are arbitrary.
func getBufLen[T any](f *freeList, n int) []T {
	if s := recycled[T](f, n); s != nil {
		return s[:n]
	}
	return make([]T, n)
}

// putBuf hands s's array back to f. The caller must hold the only
// reference.
func putBuf[T any](f *freeList, s []T) {
	if cap(s) > 0 {
		f.put(poolEntry{typeToken[T]{}, unsafe.Pointer(unsafe.SliceData(s[:1])), cap(s)})
	}
}
