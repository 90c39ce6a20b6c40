package estimate

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/query"
)

func uniformRects(n int, rng *rand.Rand, space, dim float64) []geom.Rect {
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.Rect{
			X: rng.Float64() * space,
			Y: rng.Float64() * space,
			L: rng.Float64() * dim,
			B: rng.Float64() * dim,
		}
	}
	return rects
}

func trueCardinality(r1, r2 []geom.Rect, pred query.Predicate) float64 {
	n := 0
	for _, a := range r1 {
		for _, b := range r2 {
			if pred.Eval(a, b) {
				n++
			}
		}
	}
	return float64(n)
}

func TestJoinCardinalityAccuracy(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	r1 := uniformRects(3000, rng, 1000, 40)
	r2 := uniformRects(3000, rng, 1000, 40)
	s := NewSampler(1024, 7)
	for _, pred := range []query.Predicate{query.Ov(), query.Ra(30)} {
		truth := trueCardinality(r1, r2, pred)
		est := s.JoinCardinality(r1, r2, pred)
		if est < truth/2 || est > truth*2 {
			t.Errorf("%v: estimate %.0f vs truth %.0f — outside 2×", pred, est, truth)
		}
	}
}

func TestJoinCardinalitySmallInputsExact(t *testing.T) {
	// Inputs below the sample size are joined exactly.
	rng := rand.New(rand.NewPCG(6, 6))
	r1 := uniformRects(200, rng, 500, 50)
	r2 := uniformRects(150, rng, 500, 50)
	s := NewSampler(1024, 1)
	truth := trueCardinality(r1, r2, query.Ov())
	if est := s.JoinCardinality(r1, r2, query.Ov()); est != truth {
		t.Errorf("exact path: estimate %.0f vs truth %.0f", est, truth)
	}
}

func TestJoinCardinalityEdgeCases(t *testing.T) {
	s := NewSampler(0, 1) // default size
	if s.size != DefaultSampleSize {
		t.Errorf("size = %d", s.size)
	}
	if got := s.JoinCardinality(nil, uniformRects(5, rand.New(rand.NewPCG(1, 1)), 10, 1), query.Ov()); got != 0 {
		t.Errorf("empty side: %v", got)
	}
	if got := s.Selectivity(nil, nil, query.Ov()); got != 0 {
		t.Errorf("empty selectivity: %v", got)
	}
}

func TestSelectivityMatchesTheory(t *testing.T) {
	// Uniform squares of side d in a space of side S: overlap
	// probability ≈ ((E[l1]+E[l2])/S)² for small dims.
	rng := rand.New(rand.NewPCG(9, 9))
	const space, dim = 1000.0, 40.0
	r1 := uniformRects(5000, rng, space, dim)
	r2 := uniformRects(5000, rng, space, dim)
	s := NewSampler(2048, 3)
	got := s.Selectivity(r1, r2, query.Ov())
	want := math.Pow(dim/space, 2) // (20+20)/1000 squared
	if got < want/2 || got > want*2 {
		t.Errorf("selectivity %.2g vs theoretical ≈%.2g", got, want)
	}
}

func TestSamplerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	r1 := uniformRects(5000, rng, 1000, 30)
	r2 := uniformRects(5000, rng, 1000, 30)
	a := NewSampler(512, 42).JoinCardinality(r1, r2, query.Ov())
	b := NewSampler(512, 42).JoinCardinality(r1, r2, query.Ov())
	if a != b {
		t.Errorf("same seed gave %v and %v", a, b)
	}
	c := NewSampler(512, 43).JoinCardinality(r1, r2, query.Ov())
	if a == c {
		t.Log("different seeds coincided (possible but unlikely); not failing")
	}
}

// denseSample is the reference draw the sparse one replaced: a partial
// Fisher–Yates shuffle over a materialised index of the whole dataset.
func denseSample(size int, seed uint64, rects []geom.Rect, stream uint64) []geom.Rect {
	if len(rects) <= size {
		return rects
	}
	rng := rand.New(rand.NewPCG(seed, stream))
	idx := make([]int32, len(rects))
	for i := range idx {
		idx[i] = int32(i)
	}
	out := make([]geom.Rect, size)
	for i := 0; i < size; i++ {
		j := i + rng.IntN(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = rects[idx[i]]
	}
	return out
}

// TestSparseSampleMatchesDense: the O(sample) draw consumes the same
// random sequence and returns the identical rectangles, on the streams
// the cost model and the adaptive partitioner use.
func TestSparseSampleMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	all := uniformRects(50_000, rng, 10_000, 100)
	s := NewSampler(0, 2013)
	for _, n := range []int{0, 1, 1023, 1024, 1025, 50_000} {
		for _, stream := range []uint64{1, 2, 3, 0x5eed} {
			got := s.Sample(all[:n], stream)
			want := denseSample(DefaultSampleSize, 2013, all[:n], stream)
			if !slices.Equal(got, want) {
				t.Errorf("n=%d stream=%#x: sparse draw differs from the dense reference", n, stream)
			}
		}
	}
}
