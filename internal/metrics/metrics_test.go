package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestBucketScheme pins the fixed log-bucket invariants the quantile
// estimates rest on: every value lands in exactly one bucket, and the
// bucket's upper bound is the smallest representative ≥ the value.
func TestBucketScheme(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 62, 63}, {1<<63 - 1, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		if up := BucketUpper(bucketOf(c.v)); up < c.v {
			t.Errorf("BucketUpper(bucketOf(%d)) = %d < value", c.v, up)
		}
		if c.v > 1 {
			if lo := BucketUpper(bucketOf(c.v) - 1); lo >= c.v {
				t.Errorf("BucketUpper(%d-1) = %d should be < %d", bucketOf(c.v), lo, c.v)
			}
		}
	}
}

// TestQuantileWithinBucket checks the accuracy contract: the quantile
// estimate falls in the same log bucket as the exact order statistic and
// inside [Min, Max].
func TestQuantileWithinBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		h := &Histogram{}
		n := 1 + rng.Intn(400)
		values := make([]int64, n)
		for i := range values {
			values[i] = int64(rng.Intn(1 << uint(1+rng.Intn(30))))
			h.Observe(values[i])
		}
		sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
		s := h.Snapshot()
		for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			if rank > n {
				rank = n
			}
			exact := values[rank-1]
			got := s.Quantile(q)
			if bucketOf(got) != bucketOf(exact) {
				t.Fatalf("trial %d q=%v: estimate %d in bucket %d, exact %d in bucket %d",
					trial, q, got, bucketOf(got), exact, bucketOf(exact))
			}
			if got < s.Min || got > s.Max {
				t.Fatalf("q=%v: estimate %d outside [%d,%d]", q, got, s.Min, s.Max)
			}
		}
	}
}

func TestHistogramStats(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{1, 2, 3, 10} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.Sum != 16 || s.Min != 1 || s.Max != 10 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Mean() != 4 {
		t.Fatalf("mean = %v, want 4", s.Mean())
	}
	if s.Imbalance() != 2.5 {
		t.Fatalf("imbalance = %v, want 2.5", s.Imbalance())
	}
	if (HistogramSnapshot{}).Imbalance() != 0 {
		t.Fatal("empty snapshot should have imbalance 0")
	}
}

// TestConcurrentRegistry hammers get-or-create handles and every update
// path from many goroutines; run under -race it is the stress test, and
// the final values must still be exact.
func TestConcurrentRegistry(t *testing.T) {
	reg := NewRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("shared_total").Add(1)
				reg.Counter("other_total").Add(2)
				reg.Gauge("level").Set(int64(w))
				reg.Histogram("dist").Observe(int64(i))
				if i%10 == 0 {
					reg.Snapshot() // concurrent readers
				}
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("shared_total").Value(); got != workers*perWorker {
		t.Errorf("shared_total = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Counter("other_total").Value(); got != 2*workers*perWorker {
		t.Errorf("other_total = %d, want %d", got, 2*workers*perWorker)
	}
	s := reg.Histogram("dist").Snapshot()
	if s.Count != workers*perWorker {
		t.Errorf("dist count = %d, want %d", s.Count, workers*perWorker)
	}
	wantSum := int64(workers) * perWorker * (perWorker - 1) / 2
	if s.Sum != wantSum {
		t.Errorf("dist sum = %d, want %d", s.Sum, wantSum)
	}
}

// TestNilSafety exercises the documented no-op contract of nil handles.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("c").Add(5)
	reg.Gauge("g").Set(5)
	reg.Histogram("h").Observe(5)
	if v := reg.Counter("c").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	if s := reg.Histogram("h").Snapshot(); s.Count != 0 {
		t.Errorf("nil histogram snapshot = %+v", s)
	}
	if s := reg.Snapshot(); len(s.Counters) != 0 {
		t.Errorf("nil registry snapshot = %+v", s)
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"dfs_reads_total": "dfs_reads_total",
		"run":             "run",
		"7seven":          "_seven",
		"a-b.c d":         "a_b_c_d",
		"x9":              "x9",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs_total").Add(3)
	reg.Gauge("last_imbalance_x1000").Set(1500)
	h := reg.Histogram("reducer_pairs")
	h.Observe(1) // bucket 1 (le 1)
	h.Observe(3) // bucket 2 (le 3)
	h.Observe(3)

	var b strings.Builder
	reg.WritePrometheus(&b)
	got := b.String()
	want := `# TYPE jobs_total counter
jobs_total 3
# TYPE last_imbalance_x1000 gauge
last_imbalance_x1000 1500
# TYPE reducer_pairs histogram
reducer_pairs_bucket{le="0"} 0
reducer_pairs_bucket{le="1"} 1
reducer_pairs_bucket{le="3"} 3
reducer_pairs_bucket{le="+Inf"} 3
reducer_pairs_sum 7
reducer_pairs_count 3
`
	if got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPrometheusCumulative checks the le-buckets are cumulative and the
// +Inf bucket equals the count for a spread-out distribution.
func TestPrometheusCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("d")
	for _, v := range []int64{0, 1, 5, 1000, 1 << 20} {
		h.Observe(v)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `d_bucket{le="+Inf"} 5`) {
		t.Errorf("missing +Inf bucket with total count:\n%s", out)
	}
	// Cumulative counts never decrease down the bucket list.
	prev := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		var le string
		var c int64
		if _, err := fmt.Sscanf(strings.ReplaceAll(line, `{le="`, " "), "d_bucket %s %d", &le, &c); err != nil {
			continue
		}
		if c < prev {
			t.Fatalf("bucket counts not cumulative at %q:\n%s", line, out)
		}
		prev = c
	}
}
