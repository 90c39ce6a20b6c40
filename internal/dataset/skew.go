package dataset

import (
	"fmt"
	"math"
	"math/rand/v2"

	"mwsjoin/internal/geom"
)

// SkewedParams parameterises the Zipf-clustered skewed workload the
// adaptive-partitioning evaluation runs on. Unlike the Clustered
// distribution of SyntheticParams — which spreads rectangles evenly
// over its clusters — this generator assigns cluster membership by a
// Zipf law, so a handful of clusters absorb most of the data: the
// shape of the paper's TIGER road workloads that breaks the uniform
// grid's reducer balance.
type SkewedParams struct {
	// N is the number of rectangles.
	N int
	// Clusters is the number of cluster centres (default 16).
	Clusters int
	// Exponent is the Zipf exponent s: cluster rank r receives weight
	// 1/r^s (default 1.4 — the top cluster holds roughly a third of the
	// clustered mass at 16 clusters).
	Exponent float64
	// Space is the side of the square [0, Space]² the rectangles lie in
	// (default 100 000, the paper's synthetic space).
	Space float64
	// Sigma is each cluster's Gaussian spread as a fraction of Space
	// (default 0.005 — clusters far smaller than a 64-cell grid's
	// cells, so a uniform grid funnels whole clusters into single
	// reducers).
	Sigma float64
	// Background is the fraction of rectangles drawn uniformly over the
	// whole space instead of from a cluster (default 0.1), keeping
	// every region populated so median reducer loads stay meaningful.
	Background float64
	// LMax and BMax bound the uniformly drawn rectangle dimensions
	// (default 20; kept small so dense clusters do not explode the join
	// output).
	LMax, BMax float64
}

// SkewedDefaults returns the committed evaluation parameters for n
// rectangles.
func SkewedDefaults(n int) SkewedParams { return SkewedParams{N: n} }

// withDefaults resolves zero fields to the documented defaults.
func (p SkewedParams) withDefaults() SkewedParams {
	if p.Clusters <= 0 {
		p.Clusters = 16
	}
	if p.Exponent <= 0 {
		p.Exponent = 1.4
	}
	if p.Space <= 0 {
		p.Space = 100_000
	}
	if p.Sigma <= 0 {
		p.Sigma = 0.005
	}
	if p.Background <= 0 {
		p.Background = 0.1
	}
	if p.LMax <= 0 {
		p.LMax = 20
	}
	if p.BMax <= 0 {
		p.BMax = 20
	}
	return p
}

// ZipfClustered generates the skewed rectangle set, deterministically
// from the seed: cluster centres are drawn uniformly, each rectangle
// picks a cluster by Zipf weight (or the uniform background) and its
// start-point by a Gaussian around the centre, clamped so the
// rectangle lies fully inside the space.
func ZipfClustered(p SkewedParams, seed uint64) ([]geom.Rect, error) {
	if p.N < 0 {
		return nil, fmt.Errorf("dataset: negative N %d", p.N)
	}
	p = p.withDefaults()
	rng := rand.New(rand.NewPCG(seed, 0x21bf5eed))

	cx := make([]float64, p.Clusters)
	cy := make([]float64, p.Clusters)
	for i := range cx {
		cx[i] = rng.Float64() * p.Space
		cy[i] = rng.Float64() * p.Space
	}
	// Cumulative Zipf weights over cluster ranks 1..Clusters.
	cum := make([]float64, p.Clusters)
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), p.Exponent)
		cum[i] = total
	}

	rects := make([]geom.Rect, p.N)
	for i := range rects {
		l := rng.Float64() * p.LMax
		b := rng.Float64() * p.BMax
		var x, y float64
		if rng.Float64() < p.Background {
			x = rng.Float64() * p.Space
			y = rng.Float64() * p.Space
		} else {
			u := rng.Float64() * total
			c := 0
			for c < p.Clusters-1 && cum[c] < u {
				c++
			}
			sigma := p.Sigma * p.Space
			x = cx[c] + rng.NormFloat64()*sigma
			y = cy[c] + rng.NormFloat64()*sigma
		}
		// Start point is the top-left vertex: x needs room to the right,
		// y needs room below.
		x = clamp(x, 0, p.Space-l)
		y = clamp(y, b, p.Space)
		rects[i] = geom.Rect{X: x, Y: y, L: l, B: b}
	}
	return rects, nil
}
