// Skew tests live in an external package so they can draw workloads
// from internal/dataset, which imports spatial (and transitively this
// package).
package estimate_test

import (
	"cmp"
	"slices"
	"testing"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/estimate"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/query"
	"mwsjoin/internal/sweep"
)

// The regression-guarded accuracy contract on the committed skewed
// workload: the sampled join-cardinality estimate stays within
// cardinalityFactor of the exact sweep count in both directions, and a
// sampled MBB profile's mean dimensions stay within profileMeanFactor
// of the full profile. The admission controller prices queries with
// these estimates, so a silent accuracy regression (e.g. a sampler that
// stops covering the hot clusters) must fail loudly here.
const (
	cardinalityFactor = 3.0
	profileMeanFactor = 1.5
)

func skewedRects(t *testing.T, n int, seed uint64) []geom.Rect {
	t.Helper()
	rects, err := dataset.ZipfClustered(dataset.SkewedDefaults(n), seed)
	if err != nil {
		t.Fatal(err)
	}
	return rects
}

// byMinX returns a copy of rs sorted ascending by MinX, as
// sweep.JoinSorted wants its inputs.
func byMinX(rs []geom.Rect) []geom.Rect {
	out := slices.Clone(rs)
	slices.SortStableFunc(out, func(a, b geom.Rect) int { return cmp.Compare(a.MinX(), b.MinX()) })
	return out
}

func TestJoinCardinalitySkewedBound(t *testing.T) {
	r1, err := dataset.ZipfClustered(dataset.SkewedDefaults(6000), 2013)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, smaller N: the cluster centres coincide (they are drawn
	// before the rectangles), so the hot regions actually join; the
	// enlargement breaks exact rectangle identity.
	base, err := dataset.ZipfClustered(dataset.SkewedDefaults(4000), 2013)
	if err != nil {
		t.Fatal(err)
	}
	r2 := dataset.EnlargeAll(base, 3)
	for _, tc := range []struct {
		name string
		pred query.Predicate
	}{
		{"overlap", query.Ov()},
		{"range", query.Ra(150)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			truth := 0
			sweep.JoinSorted(byMinX(r1), byMinX(r2), tc.pred.Weight(), func(_, _ int) bool {
				truth++
				return true
			})
			if truth == 0 {
				t.Fatal("skewed workloads produce no matching pairs — test is vacuous")
			}
			est := estimate.NewSampler(0, 2013).JoinCardinality(r1, r2, tc.pred)
			t.Logf("true pairs %d, estimate %.0f", truth, est)
			if est > cardinalityFactor*float64(truth) || float64(truth) > cardinalityFactor*est {
				t.Errorf("estimate %.0f outside %gx of true count %d", est, cardinalityFactor, truth)
			}
		})
	}
}

// TestSampledProfileBounds: a Describe profile computed over the
// deterministic sample bounds the full profile — extremes never
// exceed the population's, the sampled bounding box stays inside the
// population's, and means track within the documented factor. This is
// what AdaptivePartitioning relies on: the sample's spatial profile
// must look like the relation's.
func TestSampledProfileBounds(t *testing.T) {
	rects := skewedRects(t, 20_000, 7)
	sample := estimate.NewSampler(0, 2013).Sample(rects, 0x5eed)
	if len(sample) != estimate.DefaultSampleSize {
		t.Fatalf("sample size %d, want %d", len(sample), estimate.DefaultSampleSize)
	}
	full, got := dataset.Describe(rects), dataset.Describe(sample)

	if got.MaxL > full.MaxL || got.MaxB > full.MaxB || got.MaxArea > full.MaxArea {
		t.Errorf("sample maxima exceed population: %+v vs %+v", got, full)
	}
	if got.MinL < full.MinL || got.MinB < full.MinB || got.MinArea < full.MinArea {
		t.Errorf("sample minima undercut population")
	}
	if got.Bounds.MinX() < full.Bounds.MinX() || got.Bounds.MaxX() > full.Bounds.MaxX() ||
		got.Bounds.MinY() < full.Bounds.MinY() || got.Bounds.MaxY() > full.Bounds.MaxY() {
		t.Errorf("sample bounds %v escape population bounds %v", got.Bounds, full.Bounds)
	}
	if got.MeanL > profileMeanFactor*full.MeanL || full.MeanL > profileMeanFactor*got.MeanL {
		t.Errorf("sampled MeanL %.2f outside %gx of %.2f", got.MeanL, profileMeanFactor, full.MeanL)
	}
	if got.MeanB > profileMeanFactor*full.MeanB || full.MeanB > profileMeanFactor*got.MeanB {
		t.Errorf("sampled MeanB %.2f outside %gx of %.2f", got.MeanB, profileMeanFactor, full.MeanB)
	}
	// The sample must cover the hot region: the densest uniform bucket
	// of the sample should coincide with the population's.
	if hb, sb := hotBucket(rects, full), hotBucket(sample, full); hb != sb {
		t.Errorf("sample's hottest 8x8 bucket %d != population's %d — clusters not represented", sb, hb)
	}
}

// hotBucket returns the densest cell of an 8×8 grid over the profile
// bounds, by start-point count.
func hotBucket(rects []geom.Rect, s dataset.Stats) int {
	counts := make([]int, 64)
	w := s.Bounds.MaxX() - s.Bounds.MinX()
	h := s.Bounds.MaxY() - s.Bounds.MinY()
	for _, r := range rects {
		col := int((r.X - s.Bounds.MinX()) / w * 8)
		row := int((r.Y - s.Bounds.MinY()) / h * 8)
		if col > 7 {
			col = 7
		}
		if row > 7 {
			row = 7
		}
		counts[row*8+col]++
	}
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
		_ = c
	}
	return best
}
