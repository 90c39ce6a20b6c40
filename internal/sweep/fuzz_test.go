package sweep

import (
	"cmp"
	"encoding/binary"
	"slices"
	"testing"

	"mwsjoin/internal/geom"
)

// fuzzRects decodes rectangles from 8 bytes each: X, Y, L, B as
// little-endian uint16 counts of unit. L and B keep their low 6 bits
// unless their top bit is set, so most rectangles are small against
// the extent (many strips) and a few span it. The counts make touching
// edges, duplicates and gaps that equal d common; unit 0.1 makes every
// coordinate a rounded one.
func fuzzRects(data []byte, unit float64) []geom.Rect {
	var rects []geom.Rect
	for ; len(data) >= 8 && len(rects) < 256; data = data[8:] {
		v := func(i int) uint16 { return binary.LittleEndian.Uint16(data[2*i:]) }
		dim := func(raw uint16) float64 {
			if raw < 1<<15 {
				raw &= 63
			}
			return float64(raw) * unit
		}
		rects = append(rects, geom.Rect{X: float64(v(0)) * unit, Y: float64(v(1)) * unit, L: dim(v(2)), B: dim(v(3))})
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

// FuzzJoinSorted holds JoinSorted to its contract on arbitrary
// rectangles: the pair sequence — not just the set — of a quadratic
// loop over geom.Rect.Overlaps (d = 0) or WithinDist, and a prefix of
// it when fn stops the join.
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
		d := float64(dUnits) * unit

		var want [][2]int
		for i, a := range as {
			for k, b := range bs {
				if d == 0 && a.Overlaps(b) || d > 0 && a.WithinDist(b, d) {
					want = append(want, [2]int{i, k})
				}
			}
		}
		if limit > 0 && int(limit) < len(want) {
			want = want[:limit]
		}
		var got [][2]int
		JoinSorted(as, bs, d, func(i, k int) bool {
			got = append(got, [2]int{i, k})
			return limit == 0 || len(got) < int(limit)
		})
		if !slices.Equal(got, want) {
			at := 0
			for at < len(got) && at < len(want) && got[at] == want[at] {
				at++
			}
			t.Fatalf("d=%v limit=%d, %d as × %d bs: %d pairs, want %d; sequences part at %d (got %v, want %v)",
				d, limit, len(as), len(bs), len(got), len(want), at, got[at:min(at+3, len(got))], want[at:min(at+3, len(want))])
		}
	})
}
