package sweep

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mwsjoin/internal/geom"
)

// fuzzSpecials are the values a fuzzed count from 0xfff0 up stands
// for, in place of a multiple of the unit: the rounded decimals and the
// 1e16 magnitudes whose gaps round the other way than a precomputed
// window bound, ±1e9 and a negative rounded decimal. An extent takes
// the magnitude; a negative distance joins nothing.
var fuzzSpecials = [16]float64{0, 0.1, 0.2, 0.3, 0.7, 1e-9, 1, 1.0000000000000002,
	0.1 + 0.2, 3, 4, 1e16, 1e16 + 2, 1e9, -1e9 - 1, -0.29999996}

// fuzzValue is count·unit, or a special from 0xfff0 up.
func fuzzValue(raw uint16, unit float64) float64 {
	if raw >= 0xfff0 {
		return fuzzSpecials[raw&15]
	}
	return float64(raw) * unit
}

// fuzzRects decodes rectangles from 8 bytes each: X, Y, L, B as
// little-endian uint16 counts of unit, or specials (fuzzValue). L and B
// keep their low 6 bits unless their top bit is set, so most
// rectangles are small against the extent (many strips) and a few span
// it. The counts make touching edges, duplicates and gaps that equal d
// common; unit 0.1 makes every coordinate a rounded one, and the
// specials mix magnitudes.
func fuzzRects(data []byte, unit float64) []geom.Rect {
	var rects []geom.Rect
	for ; len(data) >= 8 && len(rects) < 256; data = data[8:] {
		v := func(i int) uint16 { return binary.LittleEndian.Uint16(data[2*i:]) }
		dim := func(raw uint16) float64 {
			if raw < 1<<15 {
				raw &= 63
			}
			return math.Abs(fuzzValue(raw, unit))
		}
		rects = append(rects, geom.Rect{X: fuzzValue(v(0), unit), Y: fuzzValue(v(1), unit), L: dim(v(2)), B: dim(v(3))})
	}
	return rects
}

// fuzzBytes is fuzzRects backwards at unit 1, for writing seeds as
// rectangles: {X, Y, L, B}; an L or B above 63 must be at least 1<<15.
func fuzzBytes(rects ...[4]uint16) []byte {
	var data []byte
	for _, r := range rects {
		for _, v := range r {
			data = binary.LittleEndian.AppendUint16(data, v)
		}
	}
	return data
}

// randomBytes is n random rectangles of fuzzBytes: X and Y below
// space, L and B below 64.
func randomBytes(rng *rand.Rand, n int, space uint16) []byte {
	rects := make([][4]uint16, n)
	for i := range rects {
		rects[i] = [4]uint16{uint16(rng.IntN(int(space))), uint16(rng.IntN(int(space))), uint16(rng.IntN(64)), uint16(rng.IntN(64))}
	}
	return fuzzBytes(rects...)
}

// joinReference is the pair sequence JoinSorted answers to: the
// quadratic loop over as, then bs, of geom.Rect.Overlaps (d = 0) or
// WithinDist, cut to its first limit pairs when limit > 0.
func joinReference(as, bs []geom.Rect, d float64, limit int) [][2]int {
	var want [][2]int
	for i, a := range as {
		for k, b := range bs {
			if d == 0 && a.Overlaps(b) || d > 0 && a.WithinDist(b, d) {
				want = append(want, [2]int{i, k})
			}
		}
	}
	if limit > 0 && limit < len(want) {
		want = want[:limit]
	}
	return want
}

// joinPairs is the sequence a join calls fn with, the join stopped
// after limit pairs when limit > 0.
func joinPairs(join func(fn func(i, k int) bool), limit int) [][2]int {
	var got [][2]int
	join(func(i, k int) bool {
		got = append(got, [2]int{i, k})
		return limit <= 0 || len(got) < limit
	})
	return got
}

// FuzzJoinSorted holds JoinSorted to its contract on arbitrary
// rectangles: the pair sequence — not just the set — of a quadratic
// loop over geom.Rect.Overlaps (d = 0) or WithinDist, and a prefix of
// it when fn stops the join. It holds a reducer's Strips to the same:
// one reserved for 1,024 entries, more than most inputs lay out, and
// kept across joins, which joins the sides swapped first and then as
// the fresh join does, over the first join's storage.
//
// The seeds after the hand-made shapes are the edge cases and trial
// loops this target replaced: touching rectangles, identical x stacks
// and a negative d beside the empty sides above; random sides of 60
// and 80 at d 0, 3, 5 and 40 and dense ones stopped after 3 and 4
// pairs; and the window's float regression — a.MinX = 1e16 + 2 at
// d = 1e16, where fl(aMin − d) = 2 discards b's ending in (1.3, 2)
// whose true gaps are within d — with draws over the same mixed
// magnitudes.
func FuzzJoinSorted(f *testing.F) {
	const tall = 1 << 15
	column := func(n int, x, l, b uint16) (rects [][4]uint16) { // n rectangles stacked 10 apart
		for i := 0; i < n; i++ {
			rects = append(rects, [4]uint16{x, uint16(10 * (i + 1)), l, b})
		}
		return rects
	}
	// Small rectangles over many strips, the first half as.
	f.Add(fuzzBytes(append(column(12, 5, 4, 3), column(12, 7, 4, 3)...)...), uint8(12), uint16(0), false, uint16(0))
	f.Add(fuzzBytes(append(column(12, 5, 4, 3), column(12, 7, 4, 3)...)...), uint8(12), uint16(9), true, uint16(0))
	// Degenerate: points against zero-width and zero-height segments,
	// with duplicates.
	f.Add(fuzzBytes(append(append(column(8, 3, 0, 0), column(8, 3, 0, 0)...), append(column(8, 3, 0, 9), column(8, 1, 9, 0)...)...)...),
		uint8(16), uint16(0), false, uint16(0))
	// One b far taller than the mean among small ones, and one such a.
	f.Add(fuzzBytes(append(append(column(10, 2, 3, 2), [4]uint16{0, 200, 5, tall + 200}), append(column(10, 4, 3, 2), [4]uint16{3, 150, 2, tall + 120})...)...),
		uint8(11), uint16(2), false, uint16(0))
	// y gaps that equal d to the bit: columns 10 apart, heights 3, d 7,
	// in exact eighths and in rounded tenths.
	f.Add(fuzzBytes(append(column(9, 5, 4, 3), column(9, 6, 4, 3)...)...), uint8(9), uint16(7), false, uint16(0))
	f.Add(fuzzBytes(append(column(9, 5, 4, 3), column(9, 6, 4, 3)...)...), uint8(9), uint16(7), true, uint16(0))
	// Early stop inside an a whose matches span strips.
	f.Add(fuzzBytes(append(column(9, 5, 4, tall+30), column(9, 6, 4, 3)...)...), uint8(9), uint16(0), false, uint16(5))
	// Two staircases, so windows open and close along x: d = 0 in many
	// strips, and d wide enough to leave one.
	stairs := func(n int, l, b uint16) (rects [][4]uint16) {
		for i := 0; i < n; i++ {
			rects = append(rects, [4]uint16{uint16(7 * i), uint16(300 - 9*i), l, b})
		}
		return rects
	}
	f.Add(fuzzBytes(append(stairs(30, 9, 5), stairs(30, 6, 8)...)...), uint8(30), uint16(0), false, uint16(0))
	f.Add(fuzzBytes(append(stairs(30, 9, 5), stairs(30, 6, 8)...)...), uint8(30), uint16(11), true, uint16(0))
	f.Add(fuzzBytes(append(stairs(30, 9, 5), stairs(30, 6, 8)...)...), uint8(30), uint16(900), false, uint16(0))
	// One side empty; everything on one side.
	f.Add(fuzzBytes(column(6, 1, 1, 1)...), uint8(0), uint16(1), false, uint16(0))
	f.Add(fuzzBytes(column(6, 1, 1, 1)...), uint8(200), uint16(1), false, uint16(0))
	const special = 0xfff0
	// Touching rectangles; identical x stacks; a negative distance.
	f.Add(fuzzBytes([4]uint16{0, 8, 8, 8}, [4]uint16{8, 8, 5, 5}), uint8(1), uint16(0), false, uint16(0))
	var stacks [][4]uint16
	for i := uint16(0); i < 60; i++ {
		stacks = append(stacks, [4]uint16{0, 24*(i%30) + 8*(i/30), 8, 8})
	}
	f.Add(fuzzBytes(stacks...), uint8(30), uint16(0), false, uint16(0))
	f.Add(fuzzBytes(column(6, 1, 1, 1)...), uint8(3), uint16(special|14), false, uint16(0))
	// Random sides of 60 and 80 over 100 × 100, extents up to 8, at d
	// 0, 5 (one draw) and 3, 40 (another); dense sides of 50 stopped
	// after 4 and after 3 pairs.
	rng := rand.New(rand.NewPCG(3, 33))
	for _, d := range [][2]uint16{{0, 40}, {24, 320}} {
		sides := append(randomBytes(rng, 60, 800), randomBytes(rng, 80, 800)...)
		f.Add(sides, uint8(60), d[0], false, uint16(0))
		f.Add(sides, uint8(60), d[1], false, uint16(0))
	}
	f.Add(append(randomBytes(rng, 50, 80), randomBytes(rng, 50, 80)...), uint8(50), uint16(0), false, uint16(4))
	f.Add(append(randomBytes(rng, 50, 320), randomBytes(rng, 50, 320)...), uint8(50), uint16(0), false, uint16(3))
	// The float regression, then draws of two to eight rectangles over
	// the specials, each of height 1 at y = 1.
	f.Add(fuzzBytes([4]uint16{special | 12, 8, 0, 8}, [4]uint16{special | 3, 8, special | 4, 8}, [4]uint16{special | 7, 8, special | 3, 8}),
		uint8(1), uint16(special|11), false, uint16(0))
	for i := 0; i < 3; i++ {
		var rects [][4]uint16
		for n := 2 + rng.IntN(7); len(rects) < n; {
			rects = append(rects, [4]uint16{special | uint16(rng.IntN(13)), 8, special | uint16(rng.IntN(11)), 8})
		}
		f.Add(fuzzBytes(rects...), uint8(1+rng.IntN(len(rects)-1)), uint16(special|rng.IntN(13)), false, uint16(0))
	}

	f.Fuzz(func(t *testing.T, data []byte, na uint8, dUnits uint16, tenths bool, limit uint16) {
		unit := 0.125
		if tenths {
			unit = 0.1
		}
		rects := fuzzRects(data, unit)
		byMinX := func(a, b geom.Rect) int { return cmp.Compare(a.X, b.X) }
		as, bs := rects[:min(int(na), len(rects))], rects[min(int(na), len(rects)):]
		slices.SortStableFunc(as, byMinX)
		slices.SortStableFunc(bs, byMinX)
		d := fuzzValue(dUnits, unit)

		kept := Strips{entries: make([]stripEntry, 0, 1024)}
		for _, j := range []struct {
			name   string
			as, bs []geom.Rect
			join   func(fn func(i, k int) bool)
		}{
			{"JoinSorted", as, bs, func(fn func(i, k int) bool) { JoinSorted(as, bs, d, fn) }},
			{"a kept Strips, sides swapped", bs, as, func(fn func(i, k int) bool) { kept.JoinSorted(bs, as, d, fn) }},
			{"the kept Strips", as, bs, func(fn func(i, k int) bool) { kept.JoinSorted(as, bs, d, fn) }},
		} {
			want := joinReference(j.as, j.bs, d, int(limit))
			got := joinPairs(j.join, int(limit))
			if !slices.Equal(got, want) {
				at := 0
				for at < len(got) && at < len(want) && got[at] == want[at] {
					at++
				}
				t.Fatalf("%s, d=%v limit=%d, %d as × %d bs: %d pairs, want %d; sequences part at %d (got %v, want %v)",
					j.name, d, limit, len(j.as), len(j.bs), len(got), len(want), at, got[at:min(at+3, len(got))], want[at:min(at+3, len(want))])
			}
		}
	})
}
