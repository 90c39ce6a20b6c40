package grid

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mwsjoin/internal/geom"
)

// splitCells, f1Cells and f2Cells collect the cells of a transform in
// the order its ForEach form visits them.
func splitCells(p *Partitioning, r geom.Rect) (out []CellID) {
	p.ForEachSplit(r, func(c CellID) { out = append(out, c) })
	return out
}

func f1Cells(p *Partitioning, r geom.Rect) (out []CellID) {
	p.ForEachFourthQuadrant(r, func(c CellID) { out = append(out, c) })
	return out
}

func f2Cells(p *Partitioning, r geom.Rect, d float64, m Metric) (out []CellID) {
	p.ForEachReplicateF2(r, d, m, func(c CellID) { out = append(out, c) })
	return out
}

// transformSpecials are the floats val decodes from 0x80 to 0xef:
// rounded decimals, the ±1e9 and 1e16 magnitudes of the join's float
// regressions, signed zero and the smallest subnormal.
var transformSpecials = [16]float64{0, math.Copysign(0, -1), 0.1, 0.3, 0.29999996, -0.29999996, 1, 25,
	100, 840, 1e9, -1e9 - 1, 1e16, 1e16 + 2, 0x1p-1074, 1e-9}

// transformInput decodes a FuzzTransforms input; missing bytes read as 0.
type transformInput []byte

func (in *transformInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// val: below 0x80 the lattice 12.5·(b − 64), which holds the paper
// grid's cuts; then a special; from 0xf0 any finite float64, its bits
// the next eight bytes (infinities and NaN read as 0).
func (in *transformInput) val() float64 {
	switch b := in.next(); {
	case b < 0x80:
		return 12.5 * float64(int(b)-64)
	case b < 0xf0:
		return transformSpecials[b%16]
	}
	var raw [8]byte
	for i := range raw {
		raw[i] = in.next()
	}
	if v := math.Float64frombits(binary.LittleEndian.Uint64(raw[:])); !math.IsNaN(v) && !math.IsInf(v, 0) {
		return v
	}
	return 0
}

// coord: below 0xc0 cut b/4 (mod the cuts) itself, one ulp below or
// above it where that is finite, or its band's middle (past the last
// cut, a span beyond it); from 0xc0 a val.
func (in *transformInput) coord(cuts []float64) float64 {
	b := in.next()
	if b >= 0xc0 {
		return in.val()
	}
	k := int(b>>2) % len(cuts)
	v := cuts[k]
	switch b & 3 {
	case 1:
		v = math.Nextafter(v, math.Inf(-1))
	case 2:
		v = math.Nextafter(v, math.Inf(1))
	case 3:
		if k+1 < len(cuts) {
			v = v/2 + cuts[k+1]/2
		} else {
			v += v - cuts[0]
		}
	}
	if math.IsInf(v, 0) {
		return cuts[k]
	}
	return v
}

// partitioning: 1 + the low three bits of the first byte are the rows,
// 1 + the next three the cols; below 0x80 a uniform grid over two val
// corners, else a grid from cols + 1 and rows + 1 vals, each axis
// sorted and deduplicated. Nil when they make no grid.
func (in *transformInput) partitioning() *Partitioning {
	g := in.next()
	rows, cols := 1+int(g&7), 1+int(g>>3&7)
	var p *Partitioning
	if g < 0x80 {
		corner := func() geom.Point { return geom.Point{X: in.val(), Y: in.val()} }
		p, _ = NewUniform(geom.RectFromCorners(corner(), corner()), rows, cols)
		return p
	}
	cuts := func(n int) []float64 {
		cs := make([]float64, n)
		for i := range cs {
			cs[i] = in.val()
		}
		slices.Sort(cs)
		return slices.Compact(cs)
	}
	xs := cuts(cols + 1)
	p, _ = NewFromCuts(xs, cuts(rows+1))
	return p
}

// distance: 0 or (from 0x80) a negative one, a val's magnitude, or the gap from r's
// right edge to an x cut or from its bottom edge to a y cut, which puts
// a cell at d to the bit.
func (in *transformInput) distance(p *Partitioning, r geom.Rect) float64 {
	switch b := in.next(); b & 3 {
	case 0:
		return min(0, 0x7f-float64(b)) // from 0x80 a negative d
	case 1:
		return math.Abs(in.val())
	case 2:
		return math.Abs(p.xCuts[int(b>>2)%len(p.xCuts)] - r.MaxX())
	default:
		return math.Abs(p.yCuts[int(b>>2)%len(p.yCuts)] - r.MinY())
	}
}

// Seed builders: a coordinate on cut k as coord reads it (off 0 on it,
// 1 one ulp below, 2 above, 3 its band's middle); one that is a
// special or any float; a val's byte for a multiple of 12.5; a val
// distance; a rectangle from corners (x1, y1), (x2, y2), then its
// distance and exclude bytes; and a grid from cuts given as floats.
func seedCut(k, off int) []byte { return []byte{byte(k<<2 | off)} }
func seedSpecial(i int) []byte  { return []byte{0xc0, 0x80 | byte(i)} }
func seedFloat(v float64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{0xc0, 0xf0}, math.Float64bits(v))
}
func seedLattice(v float64) byte { return byte(int(v/12.5) + 64) }
func seedDist(v float64) []byte  { return append([]byte{1}, seedFloat(v)[1:]...) }
func seedRect(x1, y1, x2, y2, dist []byte, exclude byte) []byte {
	return slices.Concat(x1, y1, x2, y2, dist, []byte{exclude})
}
func seedCuts(xs, ys []float64) []byte {
	out := []byte{0x80 | byte(len(xs)-2)<<3 | byte(len(ys)-2)}
	for _, v := range slices.Concat(xs, ys) {
		out = append(out, seedFloat(v)[1:]...)
	}
	return out
}

// FuzzTransforms is the grid's randomized oracle: it holds the §4
// transforms to their definitions, cell by cell, on arbitrary finite
// rectangles over uniform grids and grids from uneven cuts of any
// magnitude. A cell is the closed box between its stored cuts, the
// outer rows and columns reaching to infinity where a transform clamps:
//
//   - ForEachSplit visits, ascending, the cells whose clamped box meets
//     the rectangle; SplitCount counts them, Crosses says more than one;
//   - CellOf answers the owner of x ∈ [left, right) and y ∈ (bottom,
//     top] in the clamped boxes, at the rectangle's corners and at
//     (±∞, ±∞); Project is CellOf of the start point;
//   - ForEachFourthQuadrant visits, ascending, the cells whose left cut
//     is at or right of the projected cell's and whose top cut is at or
//     below its top; FourthQuadrantCount counts them;
//   - ForEachReplicateF2 visits, ascending, fourth-quadrant cells whose
//     distance to the rectangle under the metric, computed here from the
//     gaps to the box, is at most d, missing none and taking none beyond
//     d by more than twice the 2⁻⁴⁰ slack its doc gives;
//   - OtherCellWithin, with f2's slack, finds a cell other than exclude
//     when one lies within Euclidean d, and none when every other lies
//     beyond d by more than twice the slack.
//
// The last two are checked where four times the magnitudes' sum is
// finite, so that enlarging r by 2d cannot overflow. The seeds are the
// testing/quick loops' draws on the paper's 4 × 4 grid (rounded
// rectangles at d 20, 60 and 1,000, rectangles of floats, points), the
// grids of the binary-search battery this target replaced (off the
// origin, skewed cuts with a band one ulp wide, cuts at ±MaxFloat64),
// edges on and one ulp beside cuts, cuts from −1e9 to 1e16, and cells
// whose computed edges miss their cuts.
func FuzzTransforms(f *testing.F) {
	paper := []byte{3<<3 | 3, seedLattice(0), seedLattice(0), seedLattice(100), seedLattice(100)}
	rng := rand.New(rand.NewPCG(11, 13))
	var rounded, floats, points []byte
	for i := 0; i < 16; i++ {
		x, y := math.Floor(rng.Float64()*100)+0.25, math.Floor(rng.Float64()*100)+0.25
		l, b := math.Floor(rng.Float64()*30), math.Floor(rng.Float64()*30)
		rounded = append(rounded, seedRect(seedFloat(x), seedFloat(y), seedFloat(x+l), seedFloat(y-b), seedDist([3]float64{20, 60, 1000}[i%3]), 0)...)
		x, y, l, b = rng.Float64()*80, 20+rng.Float64()*80, rng.Float64()*20, rng.Float64()*20
		floats = append(floats, seedRect(seedFloat(x), seedFloat(y), seedFloat(x+l), seedFloat(y-b), seedDist(rng.Float64()*50), 0)...)
		x, y = rng.Float64()*100, rng.Float64()*100
		points = append(points, seedRect(seedFloat(x), seedFloat(y), seedFloat(x), seedFloat(y), []byte{0}, 0)...)
	}
	f.Add(slices.Concat(paper, rounded))
	f.Add(slices.Concat(paper, floats))
	f.Add(slices.Concat(paper, points))
	// On the paper grid's cuts and one ulp beside them: a corner point,
	// a rectangle touching a cut from the left, one across the grid and
	// beyond it, distances reaching a cut exactly, a negative one.
	f.Add(slices.Concat(paper,
		seedRect(seedCut(1, 0), seedCut(3, 0), seedCut(1, 0), seedCut(3, 0), []byte{0}, 0),
		seedRect(seedCut(0, 3), seedCut(2, 3), seedCut(1, 0), seedCut(2, 1), []byte{2<<2 | 2}, 0),
		seedRect(seedCut(0, 1), seedCut(4, 3), seedCut(4, 3), seedCut(0, 1), []byte{1, seedLattice(25)}, 0),
		seedRect(seedCut(2, 1), seedCut(1, 2), seedCut(2, 2), seedCut(1, 1), []byte{3<<2 | 3}, 0x85),
		seedRect(seedCut(1, 2), seedCut(3, 3), seedCut(1, 2), seedCut(3, 3), []byte{0x80}, 0)))
	// The binary-search battery's grids, with rectangles over their cuts:
	// uniform 5 × 7 off the origin, skewed cuts with a band one ulp wide,
	// cuts at ±MaxFloat64 (their span overflows), and uneven cuts of
	// mixed magnitude.
	over := slices.Concat(
		seedRect(seedCut(0, 1), seedCut(1, 2), seedCut(3, 0), seedCut(2, 3), []byte{0}, 0),
		seedRect(seedCut(2, 0), seedCut(4, 0), seedCut(5, 3), seedCut(1, 1), []byte{1<<2 | 2}, 0),
		seedRect(seedCut(1, 3), seedCut(5, 2), seedCut(6, 1), seedCut(0, 2), []byte{1, 0x80 | 6}, 0x80),
		seedRect(seedCut(7, 3), seedCut(0, 0), seedCut(8, 2), seedCut(6, 3), []byte{3 << 2}, 0),
		seedRect(seedSpecial(5), seedSpecial(15), seedSpecial(2), seedSpecial(12), []byte{1, 0x80 | 3}, 0))
	f.Add(slices.Concat([]byte{6<<3 | 4}, seedFloat(-1e6 / 3)[1:], seedFloat(7)[1:], seedFloat(1e6 - 1e6/3)[1:], seedFloat(7 - 1e-3)[1:], over))
	f.Add(slices.Concat(seedCuts([]float64{0, 1, 2, 3, 4, 5, 6, 7, 1000}, []float64{-1000, -3, -2, -1, 0, 0x1p-1074, 1}), over))
	f.Add(slices.Concat(seedCuts([]float64{-math.MaxFloat64, -1, 0, 1, math.MaxFloat64}, []float64{-math.MaxFloat64, 0, math.MaxFloat64}), over))
	f.Add(slices.Concat(seedCuts([]float64{-1e9 - 1, -0.29999996, 0.1, 0.3, 1e9}, []float64{0, 1e-9, 1, 1e16}), over))
	// Computed edges that miss their cuts: −12.5 + (0.1 + 12.5) falls
	// short of 0.1 and 12.5 − (12.5 − 1e-9) lies above 1e-9. A segment on
	// the bottom cut at d = 0, which f2 reaches only through its slack,
	// and a rectangle ending just left of the cut x = 0.1.
	f.Add(slices.Concat(seedCuts([]float64{-12.5, 0.1, 25}, []float64{1e-9, 12.5}),
		seedRect(seedCut(0, 0), seedCut(0, 0), seedCut(1, 0), seedCut(0, 0), []byte{0}, 0),
		seedRect(seedCut(0, 0), seedCut(0, 3), seedCut(1, 1), seedCut(0, 3), []byte{0}, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := transformInput(data)
		p := in.partitioning()
		for i := 0; p != nil && i < 16 && len(in) > 0; i++ {
			r := geom.RectFromCorners(geom.Point{X: in.coord(p.xCuts), Y: in.coord(p.yCuts)},
				geom.Point{X: in.coord(p.xCuts), Y: in.coord(p.yCuts)})
			d := in.distance(p, r)
			exclude := p.Project(r)
			if e := in.next(); e >= 0x80 {
				exclude = CellID(int(e) % p.NumCells())
			}
			checkTransforms(t, p, r, d, exclude)
		}
	})
}

// checkTransforms checks every transform of r on p against its
// definition (see FuzzTransforms).
func checkTransforms(t *testing.T, p *Partitioning, r geom.Rect, d float64, exclude CellID) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%v on %v: "+format, append([]any{r, p}, args...)...)
	}
	type box struct{ left, right, bottom, top float64 }
	inf := math.Inf(1)
	xs, ys := slices.Clone(p.xCuts), slices.Clone(p.yCuts)
	xs[0], xs[p.cols], ys[0], ys[p.rows] = -inf, inf, -inf, inf
	cell := func(c CellID, xs, ys []float64) box { // c's box between those cuts
		row, col := p.RowCol(c)
		return box{xs[col], xs[col+1], ys[p.rows-row-1], ys[p.rows-row]}
	}
	all := make([]CellID, p.NumCells())
	for i := range all {
		all[i] = CellID(i)
	}

	var split []CellID
	for _, c := range all {
		if b := cell(c, xs, ys); r.MinX() <= b.right && b.left <= r.MaxX() && r.MinY() <= b.top && b.bottom <= r.MaxY() {
			split = append(split, c)
		}
	}
	if got := splitCells(p, r); !slices.Equal(got, split) || p.SplitCount(r) != len(split) || p.Crosses(r) != (len(split) > 1) {
		fail("Split %v (count %d, crosses %v), the cells meeting it %v", got, p.SplitCount(r), p.Crosses(r), split)
	}
	for _, pt := range []geom.Point{r.Start(), {X: r.MaxX(), Y: r.MinY()}, {X: r.MinX(), Y: r.MinY()}, {X: r.MaxX(), Y: r.MaxY()},
		{X: -inf, Y: -inf}, {X: inf, Y: inf}, {X: -inf, Y: inf}, {X: inf, Y: -inf}} {
		owner := slices.IndexFunc(all, func(c CellID) bool {
			b := cell(c, xs, ys)
			return b.left <= pt.X && (pt.X < b.right || b.right == inf) && (b.bottom < pt.Y || b.bottom == -inf) && pt.Y <= b.top
		})
		if got := p.CellOf(pt); int(got) != owner {
			fail("CellOf(%v) = %d, its owner %d", pt, got, owner)
		}
	}
	if p.Project(r) != p.CellOf(r.Start()) {
		fail("Project %d, CellOf of its start %d", p.Project(r), p.CellOf(r.Start()))
	}

	var f1 []CellID
	own := cell(p.Project(r), p.xCuts, p.yCuts)
	for _, c := range all {
		if b := cell(c, p.xCuts, p.yCuts); b.left >= own.left && b.top <= own.top {
			f1 = append(f1, c)
		}
	}
	if got := f1Cells(p, r); !slices.Equal(got, f1) || p.FourthQuadrantCount(r) != len(f1) {
		fail("f1 %v (count %d), the fourth quadrant %v", got, p.FourthQuadrantCount(r), f1)
	}

	extent := math.Abs(p.xCuts[0]) + math.Abs(p.xCuts[p.cols]) + math.Abs(p.yCuts[0]) + math.Abs(p.yCuts[p.rows])
	magnitude := math.Abs(r.X) + math.Abs(r.Y) + r.L + r.B + extent + math.Abs(d)
	if math.IsInf(4*magnitude, 0) {
		return // f2 and OtherCellWithin enlarge r by 2d and then some
	}
	slack := magnitude * 0x1p-40
	gaps := func(b box) (dx, dy float64) {
		return max(b.left-r.MaxX(), r.MinX()-b.right, 0), max(b.bottom-r.MaxY(), r.MinY()-b.top, 0)
	}
	metrics := map[Metric]func(box) float64{
		MetricChebyshev: func(b box) float64 { dx, dy := gaps(b); return max(dx, dy) },
		MetricEuclidean: func(b box) float64 { return math.Hypot(gaps(b)) },
	}
	for m, dist := range metrics {
		got := f2Cells(p, r, d, m)
		if d < 0 && len(got) > 0 || !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
			fail("%v f2 at d = %v visits %v", m, d, got)
		}
		for _, c := range all {
			in, inF1, dc := slices.Contains(got, c), slices.Contains(f1, c), dist(cell(c, p.xCuts, p.yCuts))
			if in && (!inF1 || dc > d+2*slack) || !in && inF1 && dc <= d {
				fail("%v f2 at d = %v: cell %d at %v, in the fourth quadrant %v, visited %v (slack %v)", m, d, c, dc, inF1, in, slack)
			}
		}
	}

	near, far := false, true
	for _, c := range all {
		if c != exclude {
			dc := metrics[MetricEuclidean](cell(c, p.xCuts, p.yCuts))
			near, far = near || dc <= d, far && dc > d+2*slack
		}
	}
	if got := p.OtherCellWithin(r, exclude, d); got && (d < 0 || far) || !got && d >= 0 && near {
		fail("OtherCellWithin(%d, %v) = %v; a cell within d: %v, every one beyond d + 2·slack: %v", exclude, d, got, near, far)
	}
}
