package index

import (
	"math/rand/v2"
	"sort"
	"testing"

	"mwsjoin/internal/geom"
)

// prober is what Grid, RTree and the reference Linear share.
type prober interface {
	Probe(r geom.Rect, d float64, fn func(i int) bool)
	Len() int
}

// Linear is the reference the indexes are held to: a scan over all
// rectangles.
type Linear struct {
	rects []geom.Rect
}

func NewLinear(rects []geom.Rect) *Linear { return &Linear{rects: rects} }

func (l *Linear) Len() int { return len(l.rects) }

func (l *Linear) Probe(r geom.Rect, d float64, fn func(i int) bool) {
	for i := range l.rects {
		if matches(l.rects[i], r, d) && !fn(i) {
			return
		}
	}
}

// builders enumerates the index implementations under test.
var builders = []struct {
	name  string
	build func([]geom.Rect) prober
}{
	{"linear", func(rs []geom.Rect) prober { return NewLinear(rs) }},
	{"grid", func(rs []geom.Rect) prober { return NewGrid(rs) }},
	{"rtree", func(rs []geom.Rect) prober { return NewRTree(rs) }},
}

func randRects(n int, rng *rand.Rand, space, maxDim float64) []geom.Rect {
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.Rect{
			X: rng.Float64() * space,
			Y: rng.Float64() * space,
			L: rng.Float64() * maxDim,
			B: rng.Float64() * maxDim,
		}
	}
	return rects
}

// collect gathers sorted probe results.
func collect(ix prober, r geom.Rect, d float64) []int {
	var out []int
	ix.Probe(r, d, func(i int) bool {
		out = append(out, i)
		return true
	})
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyIndexes(t *testing.T) {
	for _, b := range builders {
		ix := b.build(nil)
		if ix.Len() != 0 {
			t.Errorf("%s: Len = %d, want 0", b.name, ix.Len())
		}
		if got := collect(ix, geom.Rect{L: 10, B: 10}, 5); len(got) != 0 {
			t.Errorf("%s: probe on empty index returned %v", b.name, got)
		}
	}
}

func TestSingleRect(t *testing.T) {
	rects := []geom.Rect{{X: 10, Y: 10, L: 5, B: 5}}
	for _, b := range builders {
		ix := b.build(rects)
		if got := collect(ix, geom.Rect{X: 12, Y: 8, L: 1, B: 1}, 0); !equalInts(got, []int{0}) {
			t.Errorf("%s: overlap probe = %v, want [0]", b.name, got)
		}
		if got := collect(ix, geom.Rect{X: 30, Y: 10, L: 1, B: 1}, 0); len(got) != 0 {
			t.Errorf("%s: far probe = %v, want empty", b.name, got)
		}
		// Distance probe: gap from [10,15] to x=18 is 3.
		if got := collect(ix, geom.Rect{X: 18, Y: 10, L: 1, B: 1}, 3); !equalInts(got, []int{0}) {
			t.Errorf("%s: range probe = %v, want [0]", b.name, got)
		}
		if got := collect(ix, geom.Rect{X: 18, Y: 10, L: 1, B: 1}, 2.9); len(got) != 0 {
			t.Errorf("%s: short range probe = %v, want empty", b.name, got)
		}
	}
}

// TestAgainstLinear cross-checks grid and rtree against the linear scan
// on random workloads, for both overlap and distance probes, including
// skewed data.
func TestAgainstLinear(t *testing.T) {
	rng := rand.New(rand.NewPCG(99, 1))
	workloads := []struct {
		name  string
		rects []geom.Rect
	}{
		{"uniform", randRects(800, rng, 1000, 20)},
		{"tiny", randRects(5, rng, 100, 30)},
		{"skewed", append(randRects(400, rng, 100, 5), randRects(400, rng, 1000, 80)...)},
		{"duplicates", append(randRects(50, rng, 50, 10), randRects(50, rng, 50, 10)...)},
	}
	for _, w := range workloads {
		ref := NewLinear(w.rects)
		for _, b := range builders[1:] {
			ix := b.build(w.rects)
			if ix.Len() != len(w.rects) {
				t.Fatalf("%s/%s: Len = %d, want %d", w.name, b.name, ix.Len(), len(w.rects))
			}
			for trial := 0; trial < 200; trial++ {
				probe := geom.Rect{
					X: rng.Float64()*1100 - 50,
					Y: rng.Float64()*1100 - 50,
					L: rng.Float64() * 60,
					B: rng.Float64() * 60,
				}
				d := 0.0
				if trial%2 == 1 {
					d = rng.Float64() * 40
				}
				want := collect(ref, probe, d)
				got := collect(ix, probe, d)
				if !equalInts(got, want) {
					t.Fatalf("%s/%s: probe %v d=%v: got %v, want %v", w.name, b.name, probe, d, got, want)
				}
			}
		}
	}
}

func TestEarlyStop(t *testing.T) {
	rects := randRects(100, rand.New(rand.NewPCG(7, 7)), 10, 10)
	probe := geom.Rect{X: 0, Y: 20, L: 20, B: 20} // covers everything
	for _, b := range builders {
		ix := b.build(rects)
		count := 0
		ix.Probe(probe, 0, func(i int) bool {
			count++
			return count < 3
		})
		if count != 3 {
			t.Errorf("%s: early stop visited %d, want 3", b.name, count)
		}
	}
}

func TestNoDuplicateReports(t *testing.T) {
	// Large rectangles span many grid buckets; each must be reported
	// exactly once per probe, across repeated probes (epoch reuse).
	rects := []geom.Rect{
		{X: 0, Y: 1000, L: 1000, B: 1000},
		{X: 100, Y: 900, L: 800, B: 800},
	}
	for _, b := range builders {
		ix := b.build(rects)
		for trial := 0; trial < 3; trial++ {
			counts := map[int]int{}
			ix.Probe(geom.Rect{X: 400, Y: 600, L: 50, B: 50}, 0, func(i int) bool {
				counts[i]++
				return true
			})
			for i, c := range counts {
				if c != 1 {
					t.Errorf("%s trial %d: rect %d reported %d times", b.name, trial, i, c)
				}
			}
			if len(counts) != 2 {
				t.Errorf("%s trial %d: got %d rects, want 2", b.name, trial, len(counts))
			}
		}
	}
}

func TestRTreeHeight(t *testing.T) {
	if h := NewRTree(nil).Height(); h != 0 {
		t.Errorf("empty height = %d", h)
	}
	if h := NewRTree(randRects(10, rand.New(rand.NewPCG(1, 1)), 100, 5)).Height(); h != 1 {
		t.Errorf("10 rects height = %d, want 1", h)
	}
	// 5000 rects: 313 leaves → 20 → 2 → 1 root = height 4.
	if h := NewRTree(randRects(5000, rand.New(rand.NewPCG(1, 1)), 100, 5)).Height(); h != 4 {
		t.Errorf("5000 rects height = %d, want 4", h)
	}
}

func TestDegenerateGeometry(t *testing.T) {
	// All-identical points: degenerate bounding box must not divide by
	// zero.
	rects := make([]geom.Rect, 20)
	for i := range rects {
		rects[i] = geom.Rect{X: 5, Y: 5}
	}
	for _, b := range builders {
		ix := b.build(rects)
		got := collect(ix, geom.Rect{X: 5, Y: 5}, 0)
		if len(got) != 20 {
			t.Errorf("%s: got %d matches, want 20", b.name, len(got))
		}
	}
}

func benchIndex(b *testing.B, build func([]geom.Rect) prober, n int) {
	rng := rand.New(rand.NewPCG(1, 2))
	rects := randRects(n, rng, 100000, 100)
	probes := randRects(1024, rng, 100000, 200)
	ix := build(rects)
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		ix.Probe(probes[i%1024], 0, func(int) bool { total++; return true })
	}
	_ = total
}

func BenchmarkGridProbe10k(b *testing.B) {
	benchIndex(b, func(r []geom.Rect) prober { return NewGrid(r) }, 10000)
}
func BenchmarkRTreeProbe10k(b *testing.B) {
	benchIndex(b, func(r []geom.Rect) prober { return NewRTree(r) }, 10000)
}
