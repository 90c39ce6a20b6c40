package sweep

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"mwsjoin/internal/geom"
)

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

// sortRectsByMinX returns a copy of rs sorted ascending by MinX — the
// precondition of JoinSorted.
func sortRectsByMinX(rs []geom.Rect) []geom.Rect {
	out := append([]geom.Rect(nil), rs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].MinX() < out[j].MinX() })
	return out
}

// TestJoinWindowFloatConsistency pins the sweep window to the exact
// axis-gap arithmetic of the match predicate. A window compared against
// precomputed aMin−d / aMax+d bounds discards (or breaks before) b's
// the predicate accepts when those subtractions round the other way
// than the gap aMin−b.MaxX(): with a.MinX = 1e16+2 and d = 1e16,
// fl(aMin−d) = 2 discards every b ending in (1.3, 2), yet the true gaps
// are ≤ d. FuzzJoinSorted draws around this instance, its first seed
// over the specials.
func TestJoinWindowFloatConsistency(t *testing.T) {
	as := []geom.Rect{{X: 1.0000000000000002e16, Y: 1, L: 0, B: 1}}
	bs := []geom.Rect{{X: 0.3, Y: 1, L: 0.7, B: 1}, {X: 1.0000000000000002, Y: 1, L: 0.3, B: 1}}
	got := joinPairs(func(fn func(i, k int) bool) { JoinSorted(as, bs, 1e16, fn) }, 0)
	if want := joinReference(as, bs, 1e16, 0); !slices.Equal(got, want) {
		t.Fatalf("pairs %v, the reference %v", got, want)
	}
}

// BenchmarkJoinSorted5k joins two sorted sets of 5,000 small rectangles
// scattered over a wide plane.
func BenchmarkJoinSorted5k(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	as := sortRectsByMinX(randRects(5000, rng, 100000, 100))
	bs := sortRectsByMinX(randRects(5000, rng, 100000, 100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		JoinSorted(as, bs, 0, func(int, int) bool { n++; return true })
	}
}

// TestReachCoversAcceptedGaps: the y-interval an a sweeps holds every
// b the pair test accepts. The instances are ones where the plain
// enlargement does not — fl(bMinY−top) ≤ d while fl(top+d) < bMinY,
// which takes a d that dwarfs the coordinates — mirrored for the lower
// edge, then a random search around the same boundary.
func TestReachCoversAcceptedGaps(t *testing.T) {
	check := func(top, bot, d, bMinY, bMaxY float64) {
		t.Helper()
		if bMinY-top > d || bot-bMaxY > d {
			return // the test rejects the pair; any interval will do
		}
		if lo, hi := reach(top, bot, d); !(bMinY <= hi && lo <= bMaxY) {
			t.Errorf("a [%v, %v] d=%v: reach [%v, %v] misses accepted b [%v, %v]", bot, top, d, lo, hi, bMinY, bMaxY)
		}
	}
	for _, c := range [][3]float64{ // bMinY, d, top
		{1, 4.223589744447587, -3.223589744447587},
		{8, 18.158134732790266, -10.158134732790268},
		{0.5, 512.0086913825112, -511.50869138251124},
	} {
		bMinY, d, top := c[0], c[1], c[2]
		if !(bMinY-top <= d && top+d < bMinY) {
			t.Fatalf("instance %v no longer separates the two roundings", c)
		}
		check(top, top-1, d, bMinY, bMinY+1)
		check(-top+1, -top, d, -bMinY-1, -bMinY) // the same gap under a
	}
	rng := rand.New(rand.NewPCG(24, 1))
	for i := 0; i < 200000; i++ {
		scale := math.Ldexp(1, rng.IntN(40)-20)
		d := rng.Float64() * scale
		edge := (rng.Float64() - 0.5) * math.Ldexp(1, rng.IntN(40)-20)
		top := edge - d
		for _, top := range []float64{top, math.Nextafter(top, math.Inf(1)), math.Nextafter(top, math.Inf(-1))} {
			h := rng.Float64() * scale
			check(top, top-h, d, edge, edge+h)
			check(-top+h, -top, d, -edge-h, -edge)
		}
	}
}
