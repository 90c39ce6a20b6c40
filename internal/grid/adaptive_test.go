package grid

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"mwsjoin/internal/geom"
)

// clusteredSample builds a heavily skewed point workload: most points
// in a few tight clusters, the rest uniform background.
func clusteredSample(n int, seed uint64) []geom.Rect {
	rng := rand.New(rand.NewPCG(seed, 42))
	centers := [][2]float64{{100, 900}, {150, 880}, {800, 200}}
	out := make([]geom.Rect, n)
	for i := range out {
		var x, y float64
		if rng.Float64() < 0.85 {
			c := centers[rng.IntN(len(centers))]
			x = c[0] + rng.NormFloat64()*10
			y = c[1] + rng.NormFloat64()*10
		} else {
			x = rng.Float64() * 1000
			y = rng.Float64() * 1000
		}
		out[i] = geom.Rect{X: min(max(x, 0), 995), Y: min(max(y, 5), 1000), L: 5, B: 5}
	}
	return out
}

func TestAdaptiveDeterministic(t *testing.T) {
	sample := clusteredSample(2000, 7)
	a, err := NewAdaptive(sample, AdaptiveOptions{Target: 64})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAdaptive(sample, AdaptiveOptions{Target: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same sample produced different partitionings:\n%v\n%v", a.xCuts, b.xCuts)
	}
}

func TestAdaptiveRespectsTarget(t *testing.T) {
	sample := clusteredSample(3000, 11)
	for _, target := range []int{4, 16, 64, 100} {
		p, err := NewAdaptive(sample, AdaptiveOptions{Target: target})
		if err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		if p.NumCells() > target {
			t.Errorf("target %d: got %d cells", target, p.NumCells())
		}
		if p.NumCells() < 2 {
			t.Errorf("target %d: degenerate %d-cell grid on a splittable sample", target, p.NumCells())
		}
	}
}

func TestAdaptiveCoversBounds(t *testing.T) {
	sample := clusteredSample(500, 3)
	bounds := geom.Rect{X: 0, Y: 1000, L: 1000, B: 1000}
	p, err := NewAdaptive(sample, AdaptiveOptions{Target: 64, Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	if p.Bounds() != bounds {
		t.Errorf("Bounds() = %v, want %v", p.Bounds(), bounds)
	}
	// Every sample start-point projects to a valid cell.
	for _, r := range sample {
		c := p.Project(r)
		if c < 0 || int(c) >= p.NumCells() {
			t.Fatalf("Project(%v) = %d out of range", r, c)
		}
	}
}

// TestAdaptiveBalancesSkew is the constructor-level acceptance check:
// on the clustered sample the adaptive grid's max/median start-point
// load beats a same-size uniform grid's by a wide margin.
func TestAdaptiveBalancesSkew(t *testing.T) {
	sample := clusteredSample(4000, 13)
	bounds := geom.Rect{X: 0, Y: 1000, L: 1000, B: 1000}
	adaptive, err := NewAdaptive(sample, AdaptiveOptions{Target: 64, Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := NewUniform(bounds, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ua, aa := startPointSkew(uniform, sample), startPointSkew(adaptive, sample)
	if aa*5 > ua {
		t.Errorf("adaptive max/median %.1f not ≥5× better than uniform %.1f", aa, ua)
	}
}

// startPointSkew computes max/median cell load of the rects'
// start-points under p, median floored at 1.
func startPointSkew(p *Partitioning, rects []geom.Rect) float64 {
	counts := make([]int64, p.NumCells())
	for _, r := range rects {
		counts[p.Project(r)]++
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
	med := counts[len(counts)/2]
	if med < 1 {
		med = 1
	}
	return float64(counts[len(counts)-1]) / float64(med)
}

func TestAdaptiveDegenerateInputs(t *testing.T) {
	if _, err := NewAdaptive(nil, AdaptiveOptions{}); err == nil {
		t.Error("empty sample: want error")
	}
	// All-identical points: a valid (if trivial) partitioning.
	same := make([]geom.Rect, 100)
	for i := range same {
		same[i] = geom.Rect{X: 5, Y: 5, L: 0, B: 0}
	}
	p, err := NewAdaptive(same, AdaptiveOptions{Target: 16})
	if err != nil {
		t.Fatalf("identical points: %v", err)
	}
	if p.NumCells() != 1 {
		t.Errorf("identical points: got %d cells, want 1", p.NumCells())
	}
	// A single rectangle still yields a usable grid.
	if _, err := NewAdaptive([]geom.Rect{{X: 1, Y: 2, L: 3, B: 1}}, AdaptiveOptions{Target: 4}); err != nil {
		t.Fatalf("single rect: %v", err)
	}
}

// TestAdaptiveMergePrefersColdPairs: with two hot columns separated by
// a cold band, the merge pass removes cuts inside the cold band first.
func TestAdaptiveMergeKeepsHotResolution(t *testing.T) {
	var sample []geom.Rect
	rng := rand.New(rand.NewPCG(5, 9))
	for i := 0; i < 2000; i++ {
		x := rng.Float64() * 100 // hot left strip
		if i%2 == 0 {
			x = 900 + rng.Float64()*100 // hot right strip
		}
		sample = append(sample, geom.Rect{X: x, Y: 5 + rng.Float64()*990, L: 2, B: 2})
	}
	bounds := geom.Rect{X: 0, Y: 1000, L: 1000, B: 1000}
	p, err := NewAdaptive(sample, AdaptiveOptions{Target: 16, Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	// Both hot strips must keep at least one interior cut; the cold
	// middle (100..900) should hold at most one.
	left, mid, right := 0, 0, 0
	for _, c := range p.xCuts[1 : len(p.xCuts)-1] {
		switch {
		case c <= 100:
			left++
		case c >= 900:
			right++
		default:
			mid++
		}
	}
	if left == 0 || right == 0 {
		t.Errorf("hot strips lost their cuts: left %d, right %d (cuts %v)", left, right, p.xCuts)
	}
	if mid > 1 {
		t.Errorf("cold band kept %d cuts (want ≤ 1): %v", mid, p.xCuts)
	}
}

// BenchmarkBuildAdaptive is the adaptive grid's construction, the
// engine's side of the benchmark's grid.build_adaptive_ms: NewAdaptive
// over what the partitioner samples for a three-relation query (1,024
// rectangles a relation), at 64 cells, on uniform rectangles at the
// paper's density and on the clustered sample.
func BenchmarkBuildAdaptive(b *testing.B) {
	const n, side = 3 * 1024, 22_360
	rng := rand.New(rand.NewPCG(2013, 64))
	uniform := make([]geom.Rect, n)
	for i := range uniform {
		uniform[i] = geom.Rect{X: rng.Float64() * side, Y: rng.Float64() * side, L: 100 * rng.Float64(), B: 100 * rng.Float64()}
	}
	for _, bc := range []struct {
		name   string
		sample []geom.Rect
	}{{"uniform", uniform}, {"clustered", clusteredSample(n, 7)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewAdaptive(bc.sample, AdaptiveOptions{Target: 64}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
