package sweep

import (
	"fmt"
	"math"
	"math/rand/v2"
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

func bruteJoin(as, bs []geom.Rect, d float64) map[[2]int]bool {
	out := map[[2]int]bool{}
	for i, a := range as {
		for j, b := range bs {
			ok := a.Overlaps(b)
			if d > 0 {
				ok = a.WithinDist(b, d)
			}
			if ok {
				out[[2]int{i, j}] = true
			}
		}
	}
	return out
}

func sweepPairs(as, bs []geom.Rect, d float64) map[[2]int]bool {
	out := map[[2]int]bool{}
	Join(as, bs, d, func(i, j int) bool {
		key := [2]int{i, j}
		if out[key] {
			panic(fmt.Sprintf("duplicate pair %v", key))
		}
		out[key] = true
		return true
	})
	return out
}

func equalPairs(a, b map[[2]int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestJoinAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 33))
	for trial := 0; trial < 30; trial++ {
		as := randRects(60, rng, 100, 25)
		bs := randRects(80, rng, 100, 25)
		for _, d := range []float64{0, 5, 40} {
			want := bruteJoin(as, bs, d)
			got := sweepPairs(as, bs, d)
			if !equalPairs(got, want) {
				t.Fatalf("trial %d d=%v: got %d pairs, want %d", trial, d, len(got), len(want))
			}
		}
	}
}

func TestJoinEdgeCases(t *testing.T) {
	a := []geom.Rect{{X: 0, Y: 10, L: 10, B: 10}}
	if got := sweepPairs(nil, a, 0); len(got) != 0 {
		t.Error("empty left side must produce nothing")
	}
	if got := sweepPairs(a, nil, 0); len(got) != 0 {
		t.Error("empty right side must produce nothing")
	}
	if got := sweepPairs(a, a, -1); len(got) != 0 {
		t.Error("negative d must produce nothing")
	}
	// Touching rectangles join under overlap.
	b := []geom.Rect{{X: 10, Y: 10, L: 5, B: 5}}
	if got := sweepPairs(a, b, 0); len(got) != 1 {
		t.Errorf("touching rects: %d pairs, want 1", len(got))
	}
	// Identical x stacks (worst case) still work.
	var stackA, stackB []geom.Rect
	for i := 0; i < 30; i++ {
		stackA = append(stackA, geom.Rect{X: 0, Y: float64(3 * i), L: 1, B: 1})
		stackB = append(stackB, geom.Rect{X: 0, Y: float64(3*i) + 1, L: 1, B: 1})
	}
	want := bruteJoin(stackA, stackB, 0)
	if got := sweepPairs(stackA, stackB, 0); !equalPairs(got, want) {
		t.Errorf("stacked join: got %d pairs, want %d", len(got), len(want))
	}
}

func TestJoinEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	as := randRects(50, rng, 10, 10)
	bs := randRects(50, rng, 10, 10)
	count := 0
	Join(as, bs, 0, func(i, j int) bool {
		count++
		return count < 4
	})
	if count != 4 {
		t.Errorf("early stop visited %d, want 4", count)
	}
}

func TestJoinDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	as := randRects(40, rng, 50, 20)
	bs := randRects(40, rng, 50, 20)
	var first [][2]int
	Join(as, bs, 0, func(i, j int) bool { first = append(first, [2]int{i, j}); return true })
	for trial := 0; trial < 3; trial++ {
		var again [][2]int
		Join(as, bs, 0, func(i, j int) bool { again = append(again, [2]int{i, j}); return true })
		if len(again) != len(first) {
			t.Fatal("pair count changed between runs")
		}
		for k := range first {
			if first[k] != again[k] {
				t.Fatalf("order changed at %d: %v vs %v", k, first[k], again[k])
			}
		}
	}
	// Sanity: the emission order follows ascending MinX of as.
	lastMinX := -1.0
	seen := map[int]bool{}
	for _, p := range first {
		if !seen[p[0]] {
			seen[p[0]] = true
			if x := as[p[0]].MinX(); x < lastMinX {
				t.Fatalf("emission order not ascending in as.MinX: %v after %v", x, lastMinX)
			} else {
				lastMinX = x
			}
		}
	}
	_ = sort.SearchInts // keep sort imported for clarity of intent
}

func BenchmarkJoin5k(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	as := randRects(5000, rng, 100000, 100)
	bs := randRects(5000, rng, 100000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		Join(as, bs, 0, func(int, int) bool { n++; return true })
	}
}

// sortRectsByMinX returns a copy of rs sorted ascending by MinX — the
// precondition of JoinSorted.
func sortRectsByMinX(rs []geom.Rect) []geom.Rect {
	out := append([]geom.Rect(nil), rs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].MinX() < out[j].MinX() })
	return out
}

// TestJoinSortedMatchesJoin checks that JoinSorted on pre-sorted
// inputs emits exactly the pairs Join emits, in the same order.
func TestJoinSortedMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for _, d := range []float64{0, 3} {
		as := sortRectsByMinX(randRects(60, rng, 80, 25))
		bs := sortRectsByMinX(randRects(60, rng, 80, 25))
		var want, got [][2]int
		Join(as, bs, d, func(i, j int) bool { want = append(want, [2]int{i, j}); return true })
		JoinSorted(as, bs, d, func(i, j int) bool { got = append(got, [2]int{i, j}); return true })
		if len(got) != len(want) {
			t.Fatalf("d=%v: %d pairs, want %d", d, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("d=%v: pair %d = %v, want %v", d, k, got[k], want[k])
			}
		}
	}
}

// TestJoinSortedEarlyStop checks callback-driven termination.
func TestJoinSortedEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	as := sortRectsByMinX(randRects(50, rng, 40, 20))
	bs := sortRectsByMinX(randRects(50, rng, 40, 20))
	n := 0
	JoinSorted(as, bs, 0, func(int, int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("callback ran %d times, want 3", n)
	}
}

// TestJoinWindowFloatConsistency pins the sweep window to the exact
// axis-gap arithmetic of the match predicate. The old window compared
// against precomputed aMin−d / aMax+d bounds; when those subtractions
// round the other way than the gap aMin−b.MaxX(), the window discards
// (or breaks before) b's the predicate accepts, silently losing pairs.
// Mixed-magnitude coordinates make the rounding disagreement common.
func TestJoinWindowFloatConsistency(t *testing.T) {
	// A regression instance found by the randomized sweep below: with
	// a.MinX = 1e16+2 and d = 1e16, fl(aMin−d) = 2 discards every b
	// ending in (1.3, 2), yet the true gaps are ≤ d.
	as := []geom.Rect{{X: 1.0000000000000002e16, Y: 1, L: 0, B: 1}}
	bs := []geom.Rect{{X: 0.3, Y: 1, L: 0.7, B: 1}, {X: 1.0000000000000002, Y: 1, L: 0.3, B: 1}}
	d := 1e16
	want := bruteJoin(as, bs, d)
	if got := sweepPairs(as, bs, d); !equalPairs(got, want) {
		t.Fatalf("regression instance: got %d pairs, want %d", len(got), len(want))
	}

	// Randomized adversarial coordinates: exact cuts, halfway-rounding
	// sums, huge magnitudes, and degenerate (zero-extent) rectangles.
	vals := []float64{0, 0.1, 0.2, 0.3, 0.7, 1e-9, 1, 1.0000000000000002,
		0.1 + 0.2, 3, 4, 1e16, 1e16 + 2}
	rng := rand.New(rand.NewPCG(7, 77))
	pick := func() float64 { return vals[rng.IntN(len(vals))] }
	for trial := 0; trial < 5000; trial++ {
		mk := func(n int) []geom.Rect {
			rs := make([]geom.Rect, n)
			for i := range rs {
				l := pick()
				if l > 10 {
					l = 0 // keep huge values as positions, not extents
				}
				rs[i] = geom.Rect{X: pick(), Y: 1, L: l, B: 1}
			}
			return rs
		}
		as, bs := mk(1+rng.IntN(4)), mk(1+rng.IntN(4))
		d := pick()
		want := bruteJoin(as, bs, d)
		if got := sweepPairs(as, bs, d); !equalPairs(got, want) {
			t.Fatalf("trial %d: as=%v bs=%v d=%v: got %d pairs, want %d",
				trial, as, bs, d, len(got), len(want))
		}
	}
}

// BenchmarkJoinSorted5k is the regression benchmark for the cascade
// pre-sort: the same workload as BenchmarkJoin5k minus the per-call
// index sorts.
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
