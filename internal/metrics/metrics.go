// Package metrics is the live-observability counterpart of the
// post-hoc tracing layer (mwsjoin/internal/trace): a concurrency-safe
// registry of named counters, gauges and streaming histograms. The
// server updates its server_* series as it schedules, and
// profile.Publish adds each finished execution's Stats — the engine,
// chain, DFS and spatial series — when the run ends. Where a trace
// answers "where did this run spend its pairs and bytes", the registry
// answers "what has the system done so far, and how is the load
// distributed". WritePrometheus renders it; the package serves nothing
// over HTTP itself (the join daemon's handler, internal/server, does).
//
// The paper's central claim is distributional: Controlled-Replicate
// wins because it ships fewer intermediate pairs AND balances them
// better across reducers (§7.8.3). Histograms here therefore use a
// fixed logarithmic bucket scheme — bucket i holds values v with
// 2^(i-1) ≤ v < 2^i — so quantile estimates are correct to within one
// bucket (a factor of 2), which is ample for skew factors.
//
// A nil *Registry is a valid no-op, mirroring the nil-Tracer idiom:
// every method on a nil registry (and on the nil Counter/Gauge/
// Histogram handles it returns) is safe and allocation-free, so callers
// may record unconditionally.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// numBuckets is the fixed bucket count of every histogram: bucket 0
// holds values ≤ 0 and bucket i (1..63) holds values in
// [2^(i-1), 2^i). int64 values never need a 65th bucket.
const numBuckets = 64

// bucketOf maps a value to its fixed log bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketUpper returns the inclusive upper bound of bucket i — the value
// a quantile estimate reports for ranks landing in that bucket.
func BucketUpper(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= 63:
		return math.MaxInt64
	default:
		return 1<<i - 1
	}
}

// Counter is a monotonically increasing int64. The nil Counter (from a
// nil Registry) ignores updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter; nil-safe.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Value returns the current count; 0 on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-latest int64 (e.g. the imbalance factor of the most
// recent job, ×1000). The nil Gauge ignores updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value; nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current value; 0 on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a streaming distribution over int64 values with the
// package's fixed log-bucket scheme. It additionally tracks exact
// count, sum, min and max, so Mean and Imbalance (max/mean) are exact
// even though quantiles are bucket-resolution. Safe for concurrent use;
// the nil Histogram ignores observations.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [numBuckets]int64
}

// Observe records one value; nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Snapshot returns a consistent copy of the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	s.Buckets = make([]int64, numBuckets)
	copy(s.Buckets, h.buckets[:])
	return s
}

// HistogramSnapshot is an exported, immutable view of a histogram.
// Buckets[i] counts observations in bucket i of the fixed scheme.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Min     int64   `json:"min"`
	Max     int64   `json:"max"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Mean returns the exact mean of the observed values, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed
// values: the upper bound of the bucket holding the rank-⌈q·count⌉
// value, clamped into [Min, Max]. The estimate always falls in the same
// bucket as the exact order statistic.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			v := BucketUpper(i)
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// Imbalance returns the max/mean ratio of the observed values — the
// reducer load-imbalance factor when one value per reducer was observed
// (1 = perfectly balanced). It returns 0 when the histogram is empty or
// the mean is not positive.
func (s HistogramSnapshot) Imbalance() float64 {
	mean := s.Mean()
	if mean <= 0 {
		return 0
	}
	return float64(s.Max) / mean
}

// Registry holds named metrics. Metric handles are get-or-create and
// stable: callers may cache them. All methods are safe for concurrent
// use and nil-safe (a nil registry hands out nil handles, whose updates
// are no-ops).
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot captures every metric's current value. Counter and gauge
// maps are plain name → value; histogram snapshots carry their buckets.
// A nil registry snapshots empty.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot returns a point-in-time copy of all metrics.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	r.mu.RUnlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	return s
}

// Names returns the sorted keys of a string-keyed map — exposition
// helpers use it for deterministic output.
func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SanitizeName maps an arbitrary string onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_]; every other rune becomes '_'.
func SanitizeName(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9' && i > 0:
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative le-labelled bucket series plus
// _sum and _count, all in sorted name order so output is deterministic
// for a fixed registry state.
func (r *Registry) WritePrometheus(w io.Writer) {
	s := r.Snapshot()
	for _, name := range names(s.Counters) {
		n := SanitizeName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[name])
	}
	for _, name := range names(s.Gauges) {
		n := SanitizeName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[name])
	}
	for _, name := range names(s.Histograms) {
		n := SanitizeName(name)
		h := s.Histograms[name]
		fmt.Fprintf(w, "# TYPE %s histogram\n", n)
		// Cumulative buckets, emitted up to the last non-empty one; the
		// +Inf bucket always equals the total count.
		last := -1
		for i, c := range h.Buckets {
			if c > 0 {
				last = i
			}
		}
		var cum int64
		for i := 0; i <= last; i++ {
			cum += h.Buckets[i]
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, BucketUpper(i), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", n, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count)
	}
}
