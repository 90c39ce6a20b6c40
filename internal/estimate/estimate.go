// Package estimate provides sampling-based spatial join cardinality
// estimation. The paper's 2-way Cascade baseline evaluates a multi-way
// query as a sequence of 2-way joins and footnote 1 assumes they run in
// the optimal order; this package supplies the estimates a planner
// needs to pick that order: the expected number of rectangle pairs
// satisfying an overlap or range predicate between two datasets.
//
// The estimator joins uniform samples of both sides with the
// plane-sweep join and scales the matched-pair count by the sampling
// rates. For a predicate with selectivity σ and samples of size s₁ and
// s₂, the estimate N₁·N₂·(matches/(s₁·s₂)) is unbiased with relative
// standard error ≈ 1/√matches, so the default sample size of 1024 per
// side resolves selectivities down to about 10⁻⁵ — ample for ranking
// join orders.
package estimate

import (
	"cmp"
	"math/rand/v2"
	"slices"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/query"
	"mwsjoin/internal/sweep"
)

// DefaultSampleSize is the per-side sample size used when a Sampler is
// built with size ≤ 0.
const DefaultSampleSize = 1024

// Sampler estimates join cardinalities over rectangle datasets with
// deterministic sampling.
type Sampler struct {
	size int
	seed uint64
}

// NewSampler builds a sampler; size ≤ 0 uses DefaultSampleSize.
func NewSampler(size int, seed uint64) *Sampler {
	if size <= 0 {
		size = DefaultSampleSize
	}
	return &Sampler{size: size, seed: seed}
}

// Sample draws min(size, len(rects)) rectangles without replacement,
// deterministically from the sampler's seed and a stream id. Distinct
// stream ids give independent draws; the EXPLAIN cost model uses one
// stream per query slot to estimate per-rectangle replication fanouts.
// A dataset no larger than the sample size is returned as is.
func (s *Sampler) Sample(rects []geom.Rect, stream uint64) []geom.Rect {
	idx := s.Indices(len(rects), stream)
	if idx == nil {
		return rects
	}
	out := make([]geom.Rect, len(idx))
	for i, j := range idx {
		out[i] = rects[j]
	}
	return out
}

// Indices draws the positions Sample picks from a dataset of n
// rectangles, in draw order, so a caller holding the rectangles in
// another layout can gather them itself. It returns nil when n is at
// most the sample size: every position, in order.
//
// The draw is a partial Fisher–Yates shuffle of the index space [0, n)
// that keeps only the displaced positions, so it costs O(sample size)
// time and memory however large n is.
func (s *Sampler) Indices(n int, stream uint64) []int {
	if n <= s.size {
		return nil
	}
	rng := rand.New(rand.NewPCG(s.seed, stream))
	// moved[p] is the index now at position p where that is not p.
	moved := make(map[int]int, s.size)
	at := func(p int) int {
		if v, ok := moved[p]; ok {
			return v
		}
		return p
	}
	out := make([]int, s.size)
	for i := range out {
		j := i + rng.IntN(n-i)
		// Swap positions i and j and keep what lands on i. Position i is
		// never looked at again (every later j is past it), so only j's
		// new occupant is recorded.
		out[i] = at(j)
		moved[j] = at(i)
	}
	return out
}

// SortByMinX orders a sample the way SampledCardinality wants it.
func SortByMinX(rects []geom.Rect) {
	slices.SortFunc(rects, func(a, b geom.Rect) int { return cmp.Compare(a.X, b.X) })
}

// SampledCardinality is JoinCardinality's second half: the estimate
// from two samples already drawn (streams 1 and 2) and ordered by
// SortByMinX, of datasets holding n1 and n2 rectangles, for a predicate
// of weight d. Callers that keep a dataset's samples pay the draw and
// the sort once, not once per estimate.
func SampledCardinality(n1 int, s1 []geom.Rect, n2 int, s2 []geom.Rect, d float64) float64 {
	if len(s1) == 0 || len(s2) == 0 {
		return 0
	}
	matches := 0
	sweep.JoinSorted(s1, s2, d, func(_, _ int) bool {
		matches++
		return true
	})
	scale := (float64(n1) / float64(len(s1))) * (float64(n2) / float64(len(s2)))
	return float64(matches) * scale
}

// JoinCardinality estimates the number of (r1, r2) pairs satisfying the
// predicate between the two datasets. Empty inputs estimate 0.
func (s *Sampler) JoinCardinality(r1, r2 []geom.Rect, pred query.Predicate) float64 {
	s1 := slices.Clone(s.Sample(r1, 1))
	s2 := slices.Clone(s.Sample(r2, 2))
	SortByMinX(s1)
	SortByMinX(s2)
	return SampledCardinality(len(r1), s1, len(r2), s2, pred.Weight())
}
