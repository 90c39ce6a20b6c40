package mapreduce

import (
	"math/bits"
	"sync"
	"unsafe"
)

// BufferPool recycles large scratch buffers across jobs, task attempts
// and executions: the chunks map runs and reducer outputs live in, the
// slab a job's reducer inputs are shuffled into, fixed-size pages a
// caller's own stores are built from (GetPage), the frames a
// distributed job's exchange payloads are encoded into and an Exchanger
// reads its peers' payloads into (GetFrame), and on a cluster worker
// the slab each result is gathered into (Slab), and the working sets
// reducers keep between calls (GetScratch). At paper scale those
// buffers dominate the allocation profile — a pool turns the per-job
// churn into a handful of steady-state arrays. Every job runs on one;
// pass a shared pool via Config.Pool so it serves every job that names
// it. A pool has one owner: the spatial executor shares one across
// every in-process execution of the process, and a cluster worker owns
// one for its executions and its data plane (DistConfig.Pool).
//
// Lifecycle rules (DESIGN.md §4g):
//
//   - A buffer is recycled only where its user holds the sole live
//     reference: the chunks of discarded fault-injection attempts, of
//     map runs the shuffle has copied or shipped and of output runs
//     the job has copied into its result, the reducer input slab
//     after the whole reduce phase — every retry included — has
//     committed, a page once nothing reads the store it served, a sent
//     payload once AllToAll has returned and what it returned is
//     decoded (the sender's own payload comes back as its own entry),
//     a received payload once the engine has decoded it
//     (Exchanger.Recycle) or the attempt ends, and a worker's result
//     slab once the worker has hashed it and, on worker 0, sent it
//     (PutSlab).
//   - A chunk is cleared before it goes back, so a pooled chunk keeps
//     nothing alive that its values pointed to (a result tuple's IDs).
//   - Recycled buffers never alias committed output: reducer outputs
//     live in pooled chunks until the job's output, a fresh slice of
//     exactly their total length, is assembled from them, and on a
//     shared pool Reduce implementations must not retain the values
//     slice (or subslices of it) after returning — copy what they
//     keep, which every reducer in this repository already does. On a
//     cluster worker (DistConfig.Pool) the output is instead a Slab of
//     that pool, since the worker sends its result and keeps nothing of
//     it: its holder puts it back (PutSlab) once nothing reads it, or
//     leaves it to the collector, as a checkpoint that keeps a job's
//     segments does.
//   - Pools are type-erased (free lists of arrays kept apart by their
//     element type): a Get is served only by an array of the requesting
//     job's V, so one pool safely serves heterogeneous job pipelines. A
//     Get that names a size is likewise served only by a buffer at least
//     that large, the smallest that is; when none is, the newest buffer
//     of that type is dropped, so the pool converges to the workload's
//     sizes instead of holding small arrays — but for working sets,
//     which a miss leaves held and go back at the size their own input
//     grew them to (GetScratch).
//   - A double-Put of the same buffer is dropped, not retained twice:
//     the pool remembers the backing-array identity of what it holds,
//     so two later Gets can never return aliasing slices whose appends
//     would corrupt each other's recycled runs.
//   - The chunks, slabs and pages together retain at most MaxPoolBytes,
//     and the frames and working sets as much again on budgets of their
//     own (a set goes back as its reduce call ends, when a job's chunks
//     and slab fill the scratch budget); a Put beyond its budget is
//     dropped for the collector, so a one-off giant job cannot pin its
//     scratch forever, and a set past the budget alone is never kept.
//     An execution that never exchanges leaves the frame list empty.
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
	mu sync.Mutex
	// scratch counts the bytes chunks, vals and pages hold; framed and
	// working those frames and sets hold. Each is capped at MaxPoolBytes.
	scratch, framed, working int64
	held                     map[unsafe.Pointer]struct{} // arrays currently held

	chunks freeList // []V and []O — map and output run chunks, chunkBytes each
	vals   freeList // []V — a job's shuffled reducer inputs, one slab
	pages  freeList // []byte — PageBytes each, for callers' stores
	frames freeList // []byte of any size — exchange payloads, sent and received
	sets   freeList // *T, as an array of one — reducers' working sets; map tasks' runs
}

// MaxPoolBytes caps the bytes one pool retains in its scratch lists
// (chunks, slabs, pages), and separately in its frames and in its
// working sets. One cascade_uniform execution (3 × 50,000 rectangles,
// two rounds) ends holding 15.9 MB: 14.6 MB of scratch — its partial
// stores' pages, a round's map and output chunks and the larger round's
// reducer-input slab — and 1.3 MB of working sets. The cap keeps one
// such execution warm; a second concurrent execution of that size
// draws fresh memory for the rest. Retained bytes are live heap, which
// the collector paces on, so a larger cap buys allocation with peak
// RSS: 32 MiB raised served_mix's peak by a quarter (EXPERIMENTS.md,
// "One pool per process"). Frames have a budget of their own because a
// cluster worker's own pages, chunks and slab already fill the scratch
// one: with frames on it, a worker's frames and pages crowd each other
// out, and cluster_w2 allocated 27.1–28.2 MB a query against 10.9–11.2
// with a budget apiece (EXPERIMENTS.md, "Workers own their pools").
const MaxPoolBytes = 24 << 20

// PageBytes is the size of every page GetPage hands out.
const PageBytes = 8 << 10

// freeList is a set of LIFO stacks of recycled arrays, one per element
// type, each array held as its address, capacity and size in bytes —
// not as a boxed slice, so a Put allocates nothing. The address doubles
// as the array's identity. A list serves a type or two, so the stacks
// are found by a scan.
type freeList struct {
	pool     *BufferPool
	retained *int64 // the pool's count this list's bytes go to
	stacks   []typedStack
}

type typedStack struct {
	elem    any // the element type's typeToken
	entries []poolEntry
}

// stack returns elem's stack, creating it on first use.
func (f *freeList) stack(elem any) *typedStack {
	for i := range f.stacks {
		if f.stacks[i].elem == elem {
			return &f.stacks[i]
		}
	}
	f.stacks = append(f.stacks, typedStack{elem: elem})
	return &f.stacks[len(f.stacks)-1]
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

// get removes and returns the smallest array of elem's type with at
// least capacity elements, the newest of equals, or nil when there is
// none. Best fit keeps a large array for the request that needs it: a
// worker's sent and received payloads of one exchange differ by a few
// percent and share its one frame list, and a frame taken by the
// smaller request leaves the larger one a miss.
//
// On a miss the caller makes a fresh array, and the newest array of the
// type is dropped: the workload has outgrown it. One large array then
// serves every smaller request after it. That holds for frames too: no
// worker holds frames of two exchanges at once, since the engine
// recycles an exchange's received payloads before it encodes the next
// and an exchange reads its peers' frames itself, and both cluster
// allocation guards pass 30 of 30 fresh runs at their ceilings without
// keeping a near miss (EXPERIMENTS.md, "A mesh frame is read by its
// exchange"). A miss on the sets' list drops nothing: a query's cells
// differ in size, and the sets a smaller cell took serve its
// successors (EXPERIMENTS.md, "Pool designs for item 31").
func (f *freeList) get(elem any, capacity int) poolEntry {
	p := f.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	st := &f.stack(elem).entries
	s := *st
	if len(s) == 0 {
		return poolEntry{}
	}
	i := -1
	for j := len(s) - 1; j >= 0 && (i < 0 || s[i].cap > capacity); j-- {
		if s[j].cap >= capacity && (i < 0 || s[j].cap < s[i].cap) {
			i = j
		}
	}
	drop := i < 0
	if drop && f == &p.sets {
		return poolEntry{}
	} else if drop {
		i = len(s) - 1
	}
	e := s[i]
	copy(s[i:], s[i+1:])
	s[len(s)-1] = poolEntry{}
	*st = s[:len(s)-1]
	delete(p.held, e.data)
	*f.retained -= e.bytes
	if drop {
		return poolEntry{}
	}
	return e
}

// put adds e under elem's type unless the pool already holds its array
// or f's budget would then exceed MaxPoolBytes. A working set that fits
// the budget alone first displaces held sets of its type with less
// room, the least first: a query's cells grow as its reducers run, and
// sets kept for its first cells would turn away the larger ones.
func (f *freeList) put(elem any, e poolEntry) {
	p := f.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.held[e.data]; dup {
		return
	}
	st := &f.stack(elem).entries
	for f == &p.sets && e.bytes <= MaxPoolBytes && *f.retained+e.bytes > MaxPoolBytes {
		i := -1
		for j, h := range *st {
			if h.cap < e.cap && (i < 0 || h.cap < (*st)[i].cap) {
				i = j
			}
		}
		if i < 0 {
			break
		}
		delete(p.held, (*st)[i].data)
		*f.retained -= (*st)[i].bytes
		*st = append((*st)[:i], (*st)[i+1:]...)
	}
	if *f.retained+e.bytes > MaxPoolBytes {
		return
	}
	if p.held == nil {
		p.held = make(map[unsafe.Pointer]struct{})
	}
	p.held[e.data] = struct{}{}
	*st = append(*st, e)
	*f.retained += e.bytes
}

// NewBufferPool returns an empty pool.
func NewBufferPool() *BufferPool {
	p := &BufferPool{}
	for _, f := range []*freeList{&p.chunks, &p.vals, &p.pages} {
		f.pool, f.retained = p, &p.scratch
	}
	p.frames.pool, p.frames.retained = p, &p.framed
	p.sets.pool, p.sets.retained = p, &p.working
	return p
}

// Retained returns the bytes the pool holds for later Gets, frames and
// working sets included.
func (p *BufferPool) Retained() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.scratch + p.framed + p.working
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

// GetFrame returns a length-n frame for an exchange payload when the
// pool holds one at least that large, and nil otherwise: the caller then
// allocates one of FrameCap(n) as the bytes arrive, so a peer's declared
// length never sizes memory of its own. Its contents are arbitrary.
func (p *BufferPool) GetFrame(n int) []byte {
	if s := recycled[byte](&p.frames, n); s != nil {
		return s[:n]
	}
	return nil
}

// getFrame returns an empty frame with room for n bytes to encode a
// payload into, a fresh one of FrameCap(n) when the pool holds none
// that large.
func (p *BufferPool) getFrame(n int) []byte {
	if s := recycled[byte](&p.frames, n); s != nil {
		return s
	}
	return make([]byte, 0, FrameCap(n))
}

// FrameCap is the capacity a fresh frame for an n-byte payload is
// allocated at: n rounded up to a sixteenth of its power of two. A
// worker's sent and received payloads of one exchange differ by a few
// bytes and share its frame list, as do one exchange's payloads from
// query to query, and a frame exactly one's size cannot hold the
// other's. Rounded, one frame fits them all, at most 1/16 over. On a
// repeated query, whose sizes repeat to the byte, exact frames measured
// the same (EXPERIMENTS.md, "Workers own their pools").
func FrameCap(n int) int {
	shift := bits.Len(uint(n)) - 5
	if shift <= 0 {
		return n
	}
	step := 1 << shift
	return (n + step - 1) &^ (step - 1)
}

// PutFrame hands an exchange payload's frame back — one from GetFrame or
// one the caller allocated. The caller must hold the only reference.
func (p *BufferPool) PutFrame(frame []byte) { putBuf(&p.frames, frame) }

// Slab returns a length-n slice of T for a result that its holder
// hands on and forgets — a job's output, an execution's ID slab — from
// pool's slab list when pool holds one that large, its contents
// arbitrary, and a fresh one otherwise. pool is a worker's
// (DistConfig.Pool), whose result is hashed, sent and then read no
// more; nil allocates, as a result that escapes to its caller must be.
// T holds no pointers: PutSlab does not clear what it takes back.
func Slab[T any](pool *BufferPool, n int) []T {
	if pool == nil {
		return make([]T, n)
	}
	return getBufLen[T](&pool.vals, n)
}

// PutSlab hands a slice from Slab back to pool once nothing reads it; a
// nil pool drops it. The caller must hold the only reference.
func PutSlab[T any](pool *BufferPool, s []T) {
	if pool != nil {
		putBuf(&pool.vals, s)
	}
}

// WorkingSet is a reducer's scratch, which a pool keeps between the
// calls that hold it: Room is the largest input it takes without
// growing, and Bytes the memory it holds.
type WorkingSet interface {
	Room() int
	Bytes() int64
}

// setOf[T] is *T, a WorkingSet.
type setOf[T any] interface {
	*T
	WorkingSet
}

// GetScratch returns a working set of T for an input of n: of the sets
// pool holds, the one with the least room that is at least n, or a new
// one, which the holder grows to its input as it fills it. A miss drops
// no held set, and no set is grown to any input but its own, so a set
// holds what the largest cell it served held. Unlike a sync.Pool, a
// pool keeps its sets through a collection. The holder owns the set
// until PutScratch.
func GetScratch[T any, S setOf[T]](pool *BufferPool, n int) S {
	if pool != nil {
		if e := pool.sets.get(typeToken[T]{}, n); e.data != nil {
			return S((*T)(e.data))
		}
	}
	return new(T)
}

// PutScratch hands a working set from GetScratch back to pool at the
// size it grew to. The pool keeps it unless its bytes would take the
// sets past their budget, MaxPoolBytes; nil drops it. The caller must
// hold the only reference, and clear what s points to outside itself,
// since the pool keeps s alive.
func PutScratch[T any, S setOf[T]](pool *BufferPool, s S) {
	if pool != nil {
		pool.sets.put(typeToken[T]{}, poolEntry{unsafe.Pointer(s), s.Room(), s.Bytes()})
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
