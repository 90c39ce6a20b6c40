package sweep

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mwsjoin/internal/geom"
)

// probeAll collects the positions Probe reports, sorted; a position
// reported twice appears twice.
func probeAll(sc *Strips, a geom.Rect, d float64) []int {
	var got []int
	sc.Probe(a, d, func(k int) bool {
		got = append(got, k)
		return true
	})
	slices.Sort(got)
	return got
}

// probeReference is the quadratic loop Probe answers to: every position
// whose rectangle geom.Rect.Overlaps (d = 0) or WithinDist a, ascending.
func probeReference(bs []geom.Rect, a geom.Rect, d float64) []int {
	var want []int
	for k, b := range bs {
		if d == 0 && b.Overlaps(a) || d > 0 && b.WithinDist(a, d) {
			want = append(want, k)
		}
	}
	return want
}

// probeRects draws the fuzz target's rectangles, ascending by MinX, in
// one of four shapes: random ones; n copies of one; a lattice of
// multiples of 5, where boxes touch along edges and at corners and sit
// at distances of exactly 5, 10, … and (15, 20 → 25) from each other;
// and random ones carried out to ±1e9, where a − b ≤ d and a ≤ b + d
// round differently.
func probeRects(seed uint64, n int, shape uint8) []geom.Rect {
	rng := rand.New(rand.NewPCG(seed, 0xf0cc))
	rects := randRects(n, rng, 1000, 30)
	switch shape % 4 {
	case 1:
		for i := range rects {
			rects[i] = rects[0]
		}
	case 2:
		for i := range rects {
			rects[i] = geom.Rect{X: 5 * float64(rng.IntN(21)), Y: 5 * float64(rng.IntN(21)), L: 5 * float64(rng.IntN(5)), B: 5 * float64(rng.IntN(5))}
		}
	case 3:
		for i := range rects {
			rects[i].X += 1e9
			rects[i].Y -= 1e9
		}
	}
	slices.SortStableFunc(rects, func(a, b geom.Rect) int { return cmp.Compare(a.X, b.X) })
	return rects
}

// FuzzStripProbe holds Probe to the quadratic loop, as a set: whatever
// rectangles, probe and distance the fuzzer invents, a layout built for
// d reports exactly the rectangles within d of the probe, each once —
// and, since the layout only chooses candidates, exactly the ones
// overlapping it when asked at d = 0.
func FuzzStripProbe(f *testing.F) {
	f.Add(uint64(1), 50, uint8(0), 10.0, 20.0, 5.0, 5.0, 0.0)
	f.Add(uint64(2), 0, uint8(0), 0.0, 0.0, 0.0, 0.0, 1.0)            // no rectangles
	f.Add(uint64(3), 1, uint8(0), -50.0, 1000.0, 2000.0, 2000.0, 0.0) // probe covers space
	f.Add(uint64(4), 200, uint8(0), 500.0, 500.0, 0.0, 0.0, 25.0)     // point probe, distance
	f.Add(uint64(5), 17, uint8(0), 100.0, 100.0, 1.0, 1.0, -1.0)      // negative distance
	f.Add(uint64(6), 100, uint8(1), 0.0, 1000.0, 1000.0, 1000.0, 0.0) // all duplicates, all matched
	f.Add(uint64(6), 300, uint8(1), 2000.0, 0.0, 1.0, 1.0, 40.0)      // all duplicates, none or all
	f.Add(uint64(7), 400, uint8(2), 50.0, 50.0, 10.0, 10.0, 0.0)      // edges and corners touching
	f.Add(uint64(7), 400, uint8(2), 50.0, 50.0, 0.0, 0.0, 5.0)        // distance exactly d along an axis
	f.Add(uint64(8), 400, uint8(2), 40.0, 60.0, 5.0, 5.0, 25.0)       // … and across a corner: 15² + 20² = 25²
	f.Add(uint64(9), 300, uint8(3), 1e9+500.3, -1e9+500.7, 7.1, 3.3, 0.3)
	f.Add(uint64(9), 300, uint8(3), 1e9+250.1, -1e9+750.9, 0.0, 0.0, 0.0)
	f.Add(uint64(10), 300, uint8(3), 0.3, 0.7, 1.0, 1.0, 1e9) // a far probe: the gaps themselves round
	f.Fuzz(func(t *testing.T, seed uint64, n int, shape uint8, px, py, pl, pb, d float64) {
		if n < 0 || n > 500 {
			return
		}
		for _, v := range []float64{px, py, pl, pb, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 4e9 {
				return
			}
		}
		bs := probeRects(seed, n, shape)
		probe := geom.Rect{X: px, Y: py, L: math.Abs(pl), B: math.Abs(pb)}
		sc := Build(bs, max(d, 0))
		defer sc.Release()
		for _, d := range []float64{d, 0} {
			if got, want := probeAll(sc, probe, d), probeReference(bs, probe, d); !slices.Equal(got, want) {
				t.Fatalf("seed=%d n=%d shape=%d probe=%v d=%v: strips %v, reference %v", seed, n, shape%4, probe, d, got, want)
			}
		}
	})
}

// TestStripProbeRoundsLikeWithinDist puts whole strips at a gap the
// predicate accepts only by rounding: the probe's edge is at ∓1e9, the
// rectangles' at ±0.29999996, and d = 1e9 + 0.3 is stored as 1e9 +
// 0.29999995…, to which the gap 1e9 + 0.29999996 also rounds — so the
// subtraction WithinDist performs says "within d", while the same edge
// compared against a query expanded by d (−1e9 + d = 0.29999995… <
// 0.29999996) says "too far". The x-window's start and the strips a
// probe visits are both bounds of that second form, widened by a
// slack; these cases hold the slack to the construction.
func TestStripProbeRoundsLikeWithinDist(t *testing.T) {
	const big, gap = 1e9, 0.29999996
	d := big + 0.3
	cases := []struct {
		name  string
		at    func(u float64) geom.Rect // a point rectangle, u along the free axis
		probe geom.Rect
	}{
		{"right", func(u float64) geom.Rect { return geom.Rect{X: gap, Y: u} }, geom.Rect{X: -big - 1, Y: 20, L: 1, B: 40}},
		{"left", func(u float64) geom.Rect { return geom.Rect{X: -gap, Y: u} }, geom.Rect{X: big, Y: 20, L: 1, B: 40}},
		{"above", func(u float64) geom.Rect { return geom.Rect{X: u, Y: gap} }, geom.Rect{X: -20, Y: -big, L: 40, B: 1}},
		{"below", func(u float64) geom.Rect { return geom.Rect{X: u, Y: -gap} }, geom.Rect{X: -20, Y: big + 1, L: 40, B: 1}},
	}
	for _, c := range cases {
		bs := make([]geom.Rect, 40)
		for i := range bs {
			bs[i] = c.at(float64(i)/4 - 5)
		}
		slices.SortStableFunc(bs, func(a, b geom.Rect) int { return cmp.Compare(a.X, b.X) })
		want := probeReference(bs, c.probe, d)
		if len(want) != len(bs) {
			t.Fatalf("%s: the predicate accepts %d of %d pairs; the construction is off", c.name, len(want), len(bs))
		}
		// Built for d the layout is one strip; built for overlap probes
		// the 40 points lie in strips of their own.
		for _, buildD := range []float64{d, 0} {
			sc := Build(bs, buildD)
			if got := probeAll(sc, c.probe, d); !slices.Equal(got, want) {
				t.Errorf("%s, built for d=%v: strips report %d of the %d rectangles WithinDist accepts", c.name, buildD, len(got), len(want))
			}
			sc.Release()
		}
	}
}

// TestStripProbeEarlyStop: fn returning false ends the probe — after
// exactly k reports, however many strips the matches span.
func TestStripProbeEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	bs := randRects(300, rng, 100, 10)
	slices.SortStableFunc(bs, func(a, b geom.Rect) int { return cmp.Compare(a.X, b.X) })
	probe := geom.Rect{X: -10, Y: 120, L: 130, B: 130} // covers everything
	sc := Build(bs, 0)
	defer sc.Release()
	if got := len(probeAll(sc, probe, 0)); got != len(bs) {
		t.Fatalf("the covering probe matched %d of %d", got, len(bs))
	}
	for _, k := range []int{1, 3, 77, len(bs) - 1} {
		count := 0
		sc.Probe(probe, 0, func(int) bool {
			count++
			return count < k
		})
		if count != k {
			t.Errorf("stop after %d: fn ran %d times", k, count)
		}
	}
}
