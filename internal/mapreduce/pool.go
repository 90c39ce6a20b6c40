package mapreduce

import (
	"cmp"
	"sync"
	"unsafe"
)

// BufferPool recycles the engine's large scratch buffers across jobs
// and task attempts: map-side sorted-run pair slices, radix-sort
// scratch, merge-tree intermediates, group-boundary indexes, and the
// merged per-reducer key/value slices. At paper scale those buffers
// dominate the allocation profile — a pool turns the per-job churn
// into a handful of steady-state arrays. Every job runs on one; pass a
// shared pool via Config.Pool so it serves every job of an execution.
//
// Lifecycle rules (DESIGN.md §4g):
//
//   - A buffer is recycled only where the engine holds the sole live
//     reference: discarded fault-injection attempts, runs consumed by
//     the merge tree, spilled runs after their re-read, and reducer
//     inputs after the whole reduce phase — every retry included — has
//     committed.
//   - Recycled buffers never alias committed output: reducer outputs
//     are freshly appended []O slices, and on a shared pool Reduce
//     implementations must not retain the values slice (or subslices
//     of it) after returning — copy what they keep, which every
//     reducer in this repository already does.
//   - Pools are type-erased (free lists of boxed slices): a Get whose
//     concrete type does not match the requesting job's K/V
//     instantiation is dropped on the floor, so one pool safely serves
//     heterogeneous job pipelines; the pool simply converges to the
//     types that dominate. A Get that names a size is likewise served
//     only by a buffer at least that large, so the pool converges to
//     the workload's run sizes instead of growing small arrays.
//   - A double-Put of the same buffer is dropped, not retained twice:
//     each free list remembers the backing-array identity of what it
//     holds, so two later Gets can never return aliasing slices whose
//     appends would corrupt each other's recycled runs.
//
// The free lists are deliberately NOT sync.Pools: a paper-scale shuffle
// allocates hundreds of megabytes per job, so the garbage collector
// runs many cycles mid-job and would evict sync.Pool entries between
// the merge phase's Put and the next job's map-phase Get — measured on
// the 1M-pair bench, that eviction forfeits most of the pooling win.
// Recycling here is explicit (sole-reference points only), so plain
// mutex-guarded stacks are safe, and each list is bounded so a one-off
// giant job cannot pin its scratch forever.
//
// BufferPool is safe for concurrent use. A job whose Config.Pool is nil
// runs on a private pool of its own.
type BufferPool struct {
	pairs freeList // *[]pair[K, V]
	keys  freeList // *[]K
	vals  freeList // *[]V
	u64s  freeList // *[]uint64 — radix rank scratch
	u32s  freeList // *[]uint32 — radix count scratch
	ints  freeList // *[]int — reduce group-boundary indexes
}

// maxPoolItems bounds each free list: at most this many buffers are
// retained per kind (a shuffle's steady state is one buffer per live
// (mapper, reducer) run plus merge-tree intermediates, far below the
// bound); further Puts are dropped for the collector.
const maxPoolItems = 2048

// freeList is a bounded LIFO of boxed slices. Get returns nil when
// empty; getBuf type-asserts and falls back to allocation. Each
// entry carries the identity of its backing array so Put can reject a
// buffer the list already holds (a double-Put would otherwise make two
// later Gets alias the same memory).
type freeList struct {
	mu    sync.Mutex
	items []poolEntry
	held  map[uintptr]struct{} // backing arrays currently in items
}

type poolEntry struct {
	id  uintptr
	box any
}

func (f *freeList) Get() any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.items); n > 0 {
		e := f.items[n-1]
		f.items[n-1] = poolEntry{}
		f.items = f.items[:n-1]
		delete(f.held, e.id)
		return e.box
	}
	return nil
}

func (f *freeList) Put(id uintptr, box any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.held[id]; dup {
		return
	}
	if len(f.items) < maxPoolItems {
		if f.held == nil {
			f.held = make(map[uintptr]struct{})
		}
		f.held[id] = struct{}{}
		f.items = append(f.items, poolEntry{id, box})
	}
}

// bufID identifies a slice by the address of its backing array; callers
// guarantee cap > 0, so the address is never nil and stays unique for
// as long as the boxed slice keeps the array alive.
func bufID[T any](s []T) uintptr {
	return uintptr(unsafe.Pointer(unsafe.SliceData(s)))
}

// NewBufferPool returns an empty pool.
func NewBufferPool() *BufferPool { return &BufferPool{} }

// getBuf returns an empty slice for appending with room for capacity
// elements: the buffer f recycles if it holds one of element type T
// that large, a fresh one otherwise. A recycled buffer that is too
// small is left to the collector, as getBufLen leaves it: the merge
// tree appends exactly the capacity it asked for, and growing a small
// array under it costs more than the array saved.
func getBuf[T any](f *freeList, capacity int) []T {
	if v, ok := f.Get().(*[]T); ok && cap(*v) >= capacity {
		return (*v)[:0]
	}
	return make([]T, 0, capacity)
}

// getBufLen returns a length-n slice for indexed writes; its contents
// are arbitrary.
func getBufLen[T any](f *freeList, n int) []T {
	if v, ok := f.Get().(*[]T); ok && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]T, n)
}

// putBuf hands s back to f. The caller must hold the only reference.
func putBuf[T any](f *freeList, s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	f.Put(bufID(s), &s)
}

// recycleBatches returns a discarded attempt's run buffers to the pool
// and removes any runs it spilled: the failed attempt has returned, so
// the engine holds the only reference.
func recycleBatches[K cmp.Ordered, V any](p *BufferPool, fs spillStore, batches []pairBatch[K, V]) {
	for r := range batches {
		putBuf(&p.pairs, batches[r].pairs)
		batches[r].pairs = nil
		if batches[r].spill != "" {
			fs.Delete(batches[r].spill)
			batches[r].spill = ""
		}
	}
}
