package server

import (
	"fmt"
	"testing"

	"mwsjoin/internal/metrics"
	"mwsjoin/internal/spatial"
)

// fakeResult builds a result whose accounted size is controlled by its
// tuple count (resultBytes is monotone in it).
func fakeResult(tuples int) *result {
	res := &result{rows: spatial.Rows{Arity: 2}}
	res.stats.OutputTuples = int64(tuples)
	for i := 0; i < tuples; i++ {
		res.rows.IDs = append(res.rows.IDs, int32(i), int32(i+1))
	}
	return res
}

func key(i int) cacheKey {
	return cacheKey{query: fmt.Sprintf("q%d", i), method: spatial.Cascade, fps: "x"}
}

func TestCacheByteBudgetAndLRUOrder(t *testing.T) {
	reg := metrics.NewRegistry()
	one := resultBytes(fakeResult(10))
	// Budget fits two 10-tuple entries but not three.
	c := newResultCache(2*one+one/2, reg)

	c.put(key(1), fakeResult(10))
	c.put(key(2), fakeResult(10))
	if c.used > c.budget {
		t.Fatalf("used %d exceeds budget %d", c.used, c.budget)
	}
	// Touch key 1 so key 2 becomes the LRU victim.
	if _, ok := c.get(key(1)); !ok {
		t.Fatal("key 1 missing before eviction")
	}
	c.put(key(3), fakeResult(10))
	if c.used > c.budget {
		t.Fatalf("used %d exceeds budget %d after eviction", c.used, c.budget)
	}
	if _, ok := c.get(key(2)); ok {
		t.Fatal("LRU entry (key 2) survived an over-budget insert")
	}
	for _, k := range []int{1, 3} {
		if _, ok := c.get(key(k)); !ok {
			t.Fatalf("key %d evicted out of LRU order", k)
		}
	}
	if n := reg.Counter("server_cache_evictions_total").Value(); n != 1 {
		t.Fatalf("server_cache_evictions_total = %d", n)
	}
	if g := reg.Gauge("server_cache_bytes").Value(); g != c.used {
		t.Fatalf("server_cache_bytes gauge %d, used %d", g, c.used)
	}
}

func TestCacheRejectsOversizedEntry(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newResultCache(resultBytes(fakeResult(10)), reg)
	c.put(key(1), fakeResult(1000))
	if len(c.entries) != 0 || c.used != 0 {
		t.Fatalf("oversized entry stored: %d entries, %d bytes", len(c.entries), c.used)
	}
	// A fitting entry still works.
	c.put(key(2), fakeResult(5))
	if _, ok := c.get(key(2)); !ok {
		t.Fatal("fitting entry missing after oversized rejection")
	}
}

func TestCacheRefreshInPlace(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newResultCache(1<<20, reg)
	c.put(key(1), fakeResult(10))
	c.put(key(1), fakeResult(20))
	if len(c.entries) != 1 {
		t.Fatalf("refresh duplicated the entry: %d entries", len(c.entries))
	}
	if c.used != resultBytes(fakeResult(20)) {
		t.Fatalf("refresh miscounted bytes: used %d", c.used)
	}
	res, ok := c.get(key(1))
	if !ok || res.stats.OutputTuples != 20 {
		t.Fatalf("refresh kept the old result: %+v", res)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(-1, metrics.NewRegistry())
	if c != nil {
		t.Fatal("negative budget should disable the cache")
	}
	c.put(key(1), fakeResult(1)) // must not panic on the nil cache
	if _, ok := c.get(key(1)); ok {
		t.Fatal("nil cache returned a hit")
	}
}

// TestCacheChargesSlabBytes: a done job is charged to the cache at its
// slab's exact bytes, 4 B an ID, plus the Stats allowance, with no
// per-row header.
func TestCacheChargesSlabBytes(t *testing.T) {
	s, reg := newTestServer(t, Config{Workers: 1})
	st := waitJob(t, s, submit(t, s, SubmitRequest{Query: "A ov B and B ov C", Method: "c-rep-l"}).ID)
	if st.State != StateDone || st.OutputTuples == 0 {
		t.Fatalf("job %s with %d tuples, want done with some", st.State, st.OutputTuples)
	}
	allowance := int64(512 + 256*len(st.Stats.Rounds))
	for _, r := range st.Stats.Rounds {
		allowance += 8 * int64(len(r.PairsPerReducer))
	}
	want := 4*3*st.OutputTuples + allowance
	s.mu.Lock()
	res := s.jobs[st.ID].res
	s.mu.Unlock()
	t.Logf("%d tuples: %d IDs, capacity %d; charged %d B", st.OutputTuples, len(res.rows.IDs), cap(res.rows.IDs), resultBytes(res))
	if got := resultBytes(res); got != want {
		t.Errorf("resultBytes = %d, want 4 B × 3 × %d IDs + %d allowance = %d", got, st.OutputTuples, allowance, want)
	}
	if got := reg.Gauge("server_cache_bytes").Value(); got != want {
		t.Errorf("server_cache_bytes = %d, want %d", got, want)
	}
}
