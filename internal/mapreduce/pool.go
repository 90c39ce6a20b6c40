package mapreduce

import (
	"sync"
	"unsafe"
)

// BufferPool recycles large scratch buffers across jobs, task attempts
// and executions: the map side's run chunks, the slab a job's reducer
// inputs are shuffled into, and fixed-size pages a caller's own stores
// are built from (GetPage). At paper scale those buffers dominate the
// allocation profile — a pool turns the per-job churn into a handful of
// steady-state arrays. Every job runs on one; pass a shared pool via
// Config.Pool so it serves every job that names it. The spatial
// executor shares one pool across every execution of the process.
//
// Lifecycle rules (DESIGN.md §4g):
//
//   - A buffer is recycled only where its user holds the sole live
//     reference: the chunks of discarded fault-injection attempts, of
//     runs the shuffle has copied or shipped, the reducer input slab
//     after the whole reduce phase — every retry included — has
//     committed, and a page once nothing reads the store it served.
//   - Recycled buffers never alias committed output: reducer outputs
//     are freshly appended []O slices, and on a shared pool Reduce
//     implementations must not retain the values slice (or subslices
//     of it) after returning — copy what they keep, which every
//     reducer in this repository already does.
//   - Pools are type-erased (free lists of arrays kept apart by their
//     element type): a Get is served only by an array of the requesting
//     job's V, so one pool safely serves heterogeneous job pipelines. A
//     Get that names a size is likewise served only by a buffer at least
//     that large; when none is, the newest buffer of that type is
//     dropped, so the pool converges to the workload's sizes instead of
//     holding small arrays.
//   - A double-Put of the same buffer is dropped, not retained twice:
//     the pool remembers the backing-array identity of what it holds,
//     so two later Gets can never return aliasing slices whose appends
//     would corrupt each other's recycled runs.
//   - The pool retains at most MaxPoolBytes in total; a Put beyond that
//     is dropped for the collector, so a one-off giant job cannot pin
//     its scratch forever.
//
// The free lists are deliberately NOT sync.Pools: a paper-scale shuffle
// allocates hundreds of megabytes per job, so the garbage collector
// runs many cycles mid-job and would evict sync.Pool entries between
// the shuffle's Put and the next job's map-phase Get — measured on the
// 1M-pair bench, that eviction forfeits most of the pooling win.
// Recycling here is explicit (sole-reference points only), so plain
// mutex-guarded stacks are safe.
//
// BufferPool is safe for concurrent use. A job whose Config.Pool is nil
// runs on a private pool of its own.
type BufferPool struct {
	mu       sync.Mutex
	retained int64                       // bytes the three lists hold
	held     map[unsafe.Pointer]struct{} // arrays currently held

	chunks freeList // []V — map-side run chunks, chunkBytes each
	vals   freeList // []V — a job's shuffled reducer inputs, one slab
	pages  freeList // []byte — PageBytes each, for callers' stores
}

// MaxPoolBytes caps the bytes one pool retains. One cascade_uniform
// execution (3 × 50,000 rectangles, two rounds) ends holding 23.4 MB:
// its partial stores' pages, a round's map chunks and the larger
// round's reducer-input slab. The cap keeps one such working set warm;
// a second concurrent execution of that size draws fresh memory for the
// rest. Retained bytes are live heap, which the collector paces on, so
// a larger cap buys allocation with peak RSS: 32 MiB raised
// served_mix's peak by a quarter (EXPERIMENTS.md, "One pool per
// process").
const MaxPoolBytes = 24 << 20

// PageBytes is the size of every page GetPage hands out.
const PageBytes = 8 << 10

// freeList is a set of LIFO stacks of recycled arrays, one per element
// type, each array held as its address, capacity and size in bytes —
// not as a boxed slice, so a Put allocates nothing. The address doubles
// as the array's identity. A list serves a type or two, so the stacks
// are found by a scan.
type freeList struct {
	pool   *BufferPool
	stacks []typedStack
}

type typedStack struct {
	elem    any // the element type's typeToken
	entries []poolEntry
}

// stack returns elem's stack, creating it on first use.
func (f *freeList) stack(elem any) *[]poolEntry {
	for i := range f.stacks {
		if f.stacks[i].elem == elem {
			return &f.stacks[i].entries
		}
	}
	f.stacks = append(f.stacks, typedStack{elem: elem})
	return &f.stacks[len(f.stacks)-1].entries
}

type poolEntry struct {
	data  unsafe.Pointer
	cap   int
	bytes int64
}

// typeToken[T]{} stored in an interface identifies T: two such
// interfaces are equal exactly when their element types are, and
// storing one allocates nothing.
type typeToken[T any] struct{}

// get removes and returns the newest array of elem's type with at least
// capacity elements, or nil when there is none — dropping, in that
// case, the newest array of the type, which the caller's fresh one
// replaces.
func (f *freeList) get(elem any, capacity int) poolEntry {
	p := f.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	st := f.stack(elem)
	s := *st
	if len(s) == 0 {
		return poolEntry{}
	}
	i := len(s) - 1
	for i >= 0 && s[i].cap < capacity {
		i--
	}
	drop := i < 0
	if drop {
		i = len(s) - 1
	}
	e := s[i]
	copy(s[i:], s[i+1:])
	s[len(s)-1] = poolEntry{}
	*st = s[:len(s)-1]
	delete(p.held, e.data)
	p.retained -= e.bytes
	if drop {
		return poolEntry{}
	}
	return e
}

// put adds e under elem's type unless the pool already holds its array
// or would then exceed MaxPoolBytes.
func (f *freeList) put(elem any, e poolEntry) {
	p := f.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.held[e.data]; dup || p.retained+e.bytes > MaxPoolBytes {
		return
	}
	if p.held == nil {
		p.held = make(map[unsafe.Pointer]struct{})
	}
	p.held[e.data] = struct{}{}
	st := f.stack(elem)
	*st = append(*st, e)
	p.retained += e.bytes
}

// NewBufferPool returns an empty pool.
func NewBufferPool() *BufferPool {
	p := &BufferPool{}
	p.chunks.pool, p.vals.pool, p.pages.pool = p, p, p
	return p
}

// Retained returns the bytes the pool holds for later Gets.
func (p *BufferPool) Retained() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retained
}

// GetPage returns a page of PageBytes for a caller's own store: a
// recycled one when the pool holds one, a fresh one otherwise. Its
// contents are arbitrary.
func (p *BufferPool) GetPage() []byte { return getBufLen[byte](&p.pages, PageBytes) }

// PutPage hands a page from GetPage back. The caller must hold the only
// reference.
func (p *BufferPool) PutPage(page []byte) {
	if cap(page) == PageBytes {
		putBuf(&p.pages, page)
	}
}

// recycled returns an array of T with at least capacity elements that
// f holds, as a zero-length slice, or nil.
func recycled[T any](f *freeList, capacity int) []T {
	if e := f.get(typeToken[T]{}, capacity); e.data != nil {
		return unsafe.Slice((*T)(e.data), e.cap)[:0]
	}
	return nil
}

// getBuf returns an empty slice for appending with room for capacity
// elements: an array f recycles if it holds one of T that large, a
// fresh one otherwise.
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
		var zero T
		f.put(typeToken[T]{}, poolEntry{unsafe.Pointer(unsafe.SliceData(s[:1])), cap(s), int64(cap(s)) * int64(unsafe.Sizeof(zero))})
	}
}
