package server

import (
	"container/list"

	"mwsjoin/internal/metrics"
	"mwsjoin/internal/spatial"
)

// cacheKey identifies a cached result: the canonical query text, the
// join method, and the fingerprints of the relations bound to the
// query's slots (in slot order). Because the dataset fingerprint is a
// content hash (dataset.Fingerprint), re-registering a relation with
// different data changes the key — a cached result can never be served
// for data it was not computed from.
type cacheKey struct {
	query  string
	method spatial.Method
	// fps is the slot-ordered relation fingerprint vector, rendered to
	// a comparable string (16 hex digits per slot).
	fps string
}

// cacheEntry is one cached result plus its accounted size.
type cacheEntry struct {
	key   cacheKey
	res   *result
	bytes int64
}

// resultCache is a byte-budgeted LRU over join results. All methods are
// unexported and the Server serialises access under its own mutex, so
// the cache itself carries no lock. A nil resultCache (budget <= 0)
// never hits and never stores.
type resultCache struct {
	budget  int64
	used    int64
	order   *list.List // front = most recently used
	entries map[cacheKey]*list.Element

	hits, misses       *metrics.Counter
	hitBytes, missed   *metrics.Counter
	evictions          *metrics.Counter
	bytesGauge, countG *metrics.Gauge
}

// newResultCache creates a cache with the given byte budget; a
// non-positive budget disables caching entirely (nil cache).
func newResultCache(budget int64, reg *metrics.Registry) *resultCache {
	if budget <= 0 {
		return nil
	}
	return &resultCache{
		budget:     budget,
		order:      list.New(),
		entries:    make(map[cacheKey]*list.Element),
		hits:       reg.Counter("server_cache_hits_total"),
		misses:     reg.Counter("server_cache_misses_total"),
		hitBytes:   reg.Counter("server_cache_hit_bytes_total"),
		missed:     reg.Counter("server_cache_miss_bytes_total"),
		evictions:  reg.Counter("server_cache_evictions_total"),
		bytesGauge: reg.Gauge("server_cache_bytes"),
		countG:     reg.Gauge("server_cache_entries"),
	}
}

// get returns the cached result for the key, if any, promoting it to
// most-recently-used. The cached result is shared and must be treated
// as immutable by all readers (the HTTP layer only paginates over it).
func (c *resultCache) get(key cacheKey) (*result, bool) {
	if c == nil {
		return nil, false
	}
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	c.hits.Add(1)
	c.hitBytes.Add(e.bytes)
	return e.res, true
}

// holds reports whether the key is cached, counting nothing and
// promoting nothing — the look before pricing that decides whether a
// pinned-method submission needs pricing at all.
func (c *resultCache) holds(key cacheKey) bool {
	if c == nil {
		return false
	}
	_, ok := c.entries[key]
	return ok
}

// put stores a result under the key, evicting least-recently-used
// entries until the byte budget holds. A result larger than the whole
// budget is not stored (it would evict everything and still not fit).
func (c *resultCache) put(key cacheKey, res *result) {
	if c == nil || res == nil {
		return
	}
	n := resultBytes(res)
	c.missed.Add(n)
	if n > c.budget {
		return
	}
	if el, ok := c.entries[key]; ok {
		// Same key recomputed (e.g. the entry was evicted between this
		// job's cache check and its completion, then re-inserted by a
		// racing twin): refresh in place.
		e := el.Value.(*cacheEntry)
		c.used += n - e.bytes
		e.res, e.bytes = res, n
		c.order.MoveToFront(el)
	} else {
		el := c.order.PushFront(&cacheEntry{key: key, res: res, bytes: n})
		c.entries[key] = el
		c.used += n
	}
	for c.used > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, e.key)
		c.used -= e.bytes
		c.evictions.Add(1)
	}
	c.bytesGauge.Set(c.used)
	c.countG.Set(int64(c.order.Len()))
}

// resultBytes accounts a result's in-memory footprint for the byte
// budget: the slab's IDs, 4 B each, plus a flat allowance for the Stats
// block and per-round engine stats.
func resultBytes(res *result) int64 {
	const (
		statsOverhead = 512 // Stats struct + DFS/Chain blocks
		roundOverhead = 256 // one mapreduce.Stats per round
	)
	n := int64(statsOverhead) + int64(len(res.stats.Rounds))*roundOverhead
	for _, r := range res.stats.Rounds {
		n += int64(len(r.PairsPerReducer)) * 8
	}
	return n + 4*int64(len(res.rows.IDs))
}
