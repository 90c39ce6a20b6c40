package mapreduce

import (
	"runtime"
	"sync"
	"testing"
)

// scratchRetained is what the pool's scratch lists hold — chunks, slabs
// and pages — which MaxPoolBytes caps; Retained adds frames and working
// sets, on budgets of their own.
func (p *BufferPool) scratchRetained() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.scratch
}

// TestPoolRetainsAtMostCap: a job whose map chunks and reducer-input
// slab each outgrow MaxPoolBytes leaves its pool's scratch lists
// holding at most the cap — chunks up to it, the slab not at all — and
// the pool serves the next job from what it kept.
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
	out, _, _, err := job.RunBlocks(n, EvenSplits(n), read)
	if err != nil {
		t.Fatal(err)
	}
	if out[0]+out[1] != n {
		t.Fatalf("reducers saw %d values, want %d", out[0]+out[1], n)
	}
	if got := pool.scratchRetained(); got > MaxPoolBytes || got < MaxPoolBytes/2 {
		t.Errorf("after the giant job the pool retains %d bytes, want at most the cap %d and at least half of it", got, MaxPoolBytes)
	}
	if s := recycled[wide](&pool.vals, 1); s != nil {
		t.Errorf("the pool kept a %d-byte reducer-input slab, larger than its cap", cap(s)*64)
	}
	if _, _, _, err := job.RunBlocks(1000, EvenSplits(1000), read); err != nil {
		t.Fatal(err)
	}
	if got := pool.scratchRetained(); got > MaxPoolBytes {
		t.Errorf("after a second job the pool retains %d bytes, cap %d", got, MaxPoolBytes)
	}
}

// TestPoolFramesBudget: exchange frames count against a budget of their
// own, so a pool whose scratch lists are full still keeps them, and
// keeps at most MaxPoolBytes of them. GetFrame hands out only a frame
// at least as large as asked for — a miss with the budget full drops
// the newest frame — and FrameCap sizes a fresh frame at most a
// sixteenth over its payload.
func TestPoolFramesBudget(t *testing.T) {
	pool := NewBufferPool()
	for range MaxPoolBytes / PageBytes {
		pool.PutPage(make([]byte, PageBytes))
	}
	scratch := pool.Retained()
	if scratch != MaxPoolBytes {
		t.Fatalf("the pages fill %d bytes, want the cap %d", scratch, MaxPoolBytes)
	}
	const frame = 4 << 20
	for range MaxPoolBytes/frame + 1 {
		pool.PutFrame(make([]byte, frame))
	}
	if got := pool.Retained() - scratch; got != MaxPoolBytes {
		t.Errorf("the pool keeps %d bytes of frames beside full scratch lists, want their own cap %d", got, MaxPoolBytes)
	}
	if f := pool.GetFrame(frame + 1); f != nil {
		t.Errorf("a %d-byte frame served a %d-byte request", cap(f), frame+1)
	}
	if got := pool.Retained() - scratch; got != MaxPoolBytes-frame {
		t.Errorf("after a miss the pool keeps %d bytes of frames, want %d", got, MaxPoolBytes-frame)
	}
	if f := pool.GetFrame(100); len(f) != 100 || cap(f) != frame {
		t.Errorf("GetFrame(100) = a frame of length %d and capacity %d, want 100 and %d", len(f), cap(f), frame)
	}
	for _, n := range []int{0, 1, 31, 1000, 128 << 10, 1<<20 + 1, 3<<20 - 5} {
		if c := FrameCap(n); c < n || c-n > n/16 {
			t.Errorf("FrameCap(%d) = %d", n, c)
		}
	}
}

// TestPoolGetRule: a Get takes the smallest array that fits, so the
// larger of two close requests still finds its array after the smaller
// one is served — in a slab list, and in the one frame list a worker's
// sent and received payloads share. On a miss either list drops its
// newest array.
func TestPoolGetRule(t *testing.T) {
	pool := NewBufferPool()
	small, large := make([]int64, 0, 1000), make([]int64, 0, 1010)
	putBuf(&pool.vals, large)
	putBuf(&pool.vals, small)
	putBuf(&pool.vals, make([]int64, 0, 4000))
	if got := cap(getBuf[int64](&pool.vals, 990)); got != 1000 {
		t.Errorf("a 990-value request took a slab of %d, want the smallest that fits, 1000", got)
	}
	if got := cap(getBuf[int64](&pool.vals, 1005)); got != 1010 {
		t.Errorf("a 1005-value request took a slab of %d, want 1010", got)
	}
	if s := recycled[int64](&pool.vals, 8000); s != nil {
		t.Fatalf("an 8000-value request was served by a slab of %d", cap(s))
	}
	if s := recycled[int64](&pool.vals, 1); s != nil {
		t.Errorf("the slab list kept its newest slab after a miss: %d values", cap(s))
	}

	// A received frame serves an encoded payload and the other way round.
	pool.PutFrame(make([]byte, 1010))
	pool.PutFrame(make([]byte, 0, 1000))
	if got := cap(pool.getFrame(990)); got != 1000 {
		t.Errorf("a 990-byte payload was encoded into a frame of %d, want the smallest that fits, 1000", got)
	}
	if f := pool.GetFrame(1005); cap(f) != 1010 {
		t.Errorf("a 1005-byte read took a frame of %d, want 1010", cap(f))
	}

	pool.PutFrame(make([]byte, 200))
	pool.PutFrame(make([]byte, 300))
	if f := pool.GetFrame(500); f != nil {
		t.Fatalf("a 500-byte request was served by a %d-byte frame", cap(f))
	}
	if f := pool.GetFrame(1); cap(f) != 200 {
		t.Errorf("after a miss GetFrame(1) = %d bytes, want the older 200-byte frame: the miss drops the newest", cap(f))
	}
	if got := pool.Retained(); got != 0 {
		t.Errorf("the pool retains %d bytes, want none", got)
	}
}

// scratchSet is a working set for TestWorkingSets: room for len(buf)
// inputs.
type scratchSet struct{ buf []int64 }

func (s *scratchSet) Reserve(n int) {
	if cap(s.buf) < n {
		s.buf = make([]int64, 0, n)
	}
}

func (s *scratchSet) Bytes() int64 { return 8 * int64(cap(s.buf)) }

// TestWorkingSets: a pool keeps its working sets through a collection;
// every set it holds, hands out or takes back is grown to the largest
// input a set of its type was asked for, so one that was away while
// another met that input comes back grown; and the sets count against a
// budget of their own, beside full scratch lists. Sets grown past that
// budget are dropped, and size no later one.
func TestWorkingSets(t *testing.T) {
	pool := NewBufferPool()
	for range MaxPoolBytes / PageBytes {
		pool.PutPage(make([]byte, PageBytes))
	}
	a, b := GetScratch[scratchSet](pool, 10), GetScratch[scratchSet](pool, 1000)
	if a == b || cap(a.buf) != 10 || cap(b.buf) != 1000 {
		t.Fatalf("two sets drawn at once: %p with room %d and %p with room %d", a, cap(a.buf), b, cap(b.buf))
	}
	PutScratch(pool, a)
	PutScratch(pool, b)
	if cap(a.buf) != 1000 {
		t.Errorf("a set put back after another met 1000 inputs has room %d", cap(a.buf))
	}
	c := GetScratch[scratchSet](pool, 2000)
	if cap(c.buf) != 2000 || (cap(a.buf) != 2000 && c != a) || (cap(b.buf) != 2000 && c != b) {
		t.Errorf("a set drawn for 2000 inputs has room %d, and the one the pool held %d and %d", cap(c.buf), cap(a.buf), cap(b.buf))
	}
	PutScratch(pool, c)
	if got := pool.Retained() - MaxPoolBytes; got != 2*16000 {
		t.Errorf("the pool keeps %d bytes of working sets beside full scratch lists, want %d", got, 2*16000)
	}
	runtime.GC()
	c, d := GetScratch[scratchSet](pool, 1), GetScratch[scratchSet](pool, 1)
	if (c != a && c != b) || (d != a && d != b) || c == d {
		t.Errorf("after a collection the pool handed out %p and %p, not the sets %p and %p it kept", c, d, a, b)
	}
	PutScratch(pool, c)
	PutScratch(pool, d)
	PutScratch(pool, GetScratch[scratchSet](pool, MaxPoolBytes/8+1))
	if got := pool.Retained() - MaxPoolBytes; got != 0 {
		t.Errorf("sets grown past the budget left %d bytes held", got)
	}
	if e := GetScratch[scratchSet](pool, 1); cap(e.buf) != 1 {
		t.Errorf("after sets grown past the budget were dropped, a set drawn for 1 input has room %d", cap(e.buf))
	}
}

// TestWorkingSetsConcurrent: reduce calls draw and return sets from
// many goroutines at once, each set with room for its input and held by
// one goroutine at a time (run under -race).
func TestWorkingSetsConcurrent(t *testing.T) {
	pool := NewBufferPool()
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				n := (g*37 + i*11) % 500
				s := GetScratch[scratchSet](pool, n)
				if cap(s.buf) < n {
					t.Errorf("a set drawn for %d inputs has room %d", n, cap(s.buf))
				}
				s.buf = append(s.buf[:0], make([]int64, n)...)
				for k := range s.buf {
					s.buf[k] = int64(g)
				}
				PutScratch(pool, s)
			}
		}()
	}
	wg.Wait()
}
