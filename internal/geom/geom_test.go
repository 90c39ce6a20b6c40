package geom

import (
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func rect(x, y, l, b float64) Rect { return Rect{X: x, Y: y, L: l, B: b} }

func TestNewRect(t *testing.T) {
	tests := []struct {
		name       string
		x, y, l, b float64
		wantErr    bool
	}{
		{"simple", 1, 2, 3, 4, false},
		{"degenerate point", 0, 0, 0, 0, false},
		{"degenerate segment", 5, 5, 10, 0, false},
		{"negative length", 0, 0, -1, 2, true},
		{"negative breadth", 0, 0, 1, -2, true},
		{"nan coordinate", math.NaN(), 0, 1, 1, true},
		{"inf dimension", 0, 0, math.Inf(1), 1, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewRect(tt.x, tt.y, tt.l, tt.b)
			if (err != nil) != tt.wantErr {
				t.Fatalf("NewRect(%v,%v,%v,%v) err = %v, wantErr %v", tt.x, tt.y, tt.l, tt.b, err, tt.wantErr)
			}
		})
	}
}

func TestRectEdges(t *testing.T) {
	r := rect(2, 10, 4, 3)
	if got := r.MinX(); got != 2 {
		t.Errorf("MinX = %v, want 2", got)
	}
	if got := r.MaxX(); got != 6 {
		t.Errorf("MaxX = %v, want 6", got)
	}
	if got := r.MaxY(); got != 10 {
		t.Errorf("MaxY = %v, want 10", got)
	}
	if got := r.MinY(); got != 7 {
		t.Errorf("MinY = %v, want 7", got)
	}
	if got := r.Center(); got != (Point{4, 8.5}) {
		t.Errorf("Center = %v, want (4, 8.5)", got)
	}
	if got := r.Area(); got != 12 {
		t.Errorf("Area = %v, want 12", got)
	}
	if got := r.Diagonal(); got != 5 {
		t.Errorf("Diagonal = %v, want 5", got)
	}
}

func TestRectFromCorners(t *testing.T) {
	want := rect(1, 8, 4, 6)
	for _, pq := range [][2]Point{
		{{1, 2}, {5, 8}},
		{{5, 8}, {1, 2}},
		{{1, 8}, {5, 2}},
		{{5, 2}, {1, 8}},
	} {
		if got := RectFromCorners(pq[0], pq[1]); got != want {
			t.Errorf("RectFromCorners(%v, %v) = %v, want %v", pq[0], pq[1], got, want)
		}
	}
}

func TestOverlaps(t *testing.T) {
	base := rect(0, 10, 10, 10) // spans [0,10] x [0,10]
	tests := []struct {
		name string
		s    Rect
		want bool
	}{
		{"identical", base, true},
		{"contained", rect(2, 8, 2, 2), true},
		{"partial", rect(5, 15, 10, 10), true},
		{"touching right edge", rect(10, 10, 5, 5), true},
		{"touching top edge", rect(0, 15, 10, 5), true},
		{"touching corner", rect(10, 20, 5, 10), true},
		{"disjoint right", rect(10.5, 10, 5, 5), false},
		{"disjoint above", rect(0, 20, 10, 5), false},
		{"disjoint diagonal", rect(11, 21, 5, 5), false},
		{"degenerate point inside", rect(5, 5, 0, 0), true},
		{"degenerate point outside", rect(15, 5, 0, 0), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := base.Overlaps(tt.s); got != tt.want {
				t.Errorf("Overlaps(%v, %v) = %v, want %v", base, tt.s, got, tt.want)
			}
			if got := tt.s.Overlaps(base); got != tt.want {
				t.Errorf("Overlaps is not symmetric for %v, %v", base, tt.s)
			}
		})
	}
}

func TestIntersection(t *testing.T) {
	a := rect(0, 10, 10, 10)
	b := rect(5, 15, 10, 10) // spans [5,15] x [5,15]
	got, ok := a.Intersection(b)
	if !ok {
		t.Fatal("expected overlap")
	}
	want := rect(5, 10, 5, 5)
	if got != want {
		t.Errorf("Intersection = %v, want %v", got, want)
	}

	// Touching rectangles intersect in a degenerate rectangle.
	c := rect(10, 10, 5, 5)
	got, ok = a.Intersection(c)
	if !ok {
		t.Fatal("touching rectangles must intersect")
	}
	if got.L != 0 || got.B != 5 || got.X != 10 || got.Y != 10 {
		t.Errorf("degenerate intersection = %v, want (10,10,0,5)", got)
	}

	if _, ok := a.Intersection(rect(20, 10, 1, 1)); ok {
		t.Error("disjoint rectangles must not intersect")
	}
}

func TestUnion(t *testing.T) {
	a := rect(0, 10, 4, 4)
	b := rect(8, 3, 2, 2)
	got := a.Union(b)
	want := rect(0, 10, 10, 9)
	if got != want {
		t.Errorf("Union = %v, want %v", got, want)
	}
}

func TestDist(t *testing.T) {
	base := rect(0, 10, 10, 10)
	tests := []struct {
		name string
		s    Rect
		want float64
	}{
		{"overlapping", rect(5, 15, 10, 10), 0},
		{"touching", rect(10, 10, 5, 5), 0},
		{"right gap 3", rect(13, 10, 5, 5), 3},
		{"above gap 2", rect(0, 17, 10, 5), 2},
		{"diagonal 3-4-5", rect(13, 19, 5, 5), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := base.Dist(tt.s); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist = %v, want %v", got, tt.want)
			}
			if got := tt.s.Dist(base); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist is not symmetric")
			}
			// WithinDist must agree with Dist on both sides of the cutoff.
			if !base.WithinDist(tt.s, tt.want) {
				t.Errorf("WithinDist(d=dist) = false, want true")
			}
			if tt.want > 0 && base.WithinDist(tt.s, tt.want-1e-9) {
				t.Errorf("WithinDist(d<dist) = true, want false")
			}
		})
	}
	if base.WithinDist(base, -1) {
		t.Error("WithinDist with negative d must be false")
	}
}

func TestChebyshevDist(t *testing.T) {
	base := rect(0, 10, 10, 10)
	tests := []struct {
		s    Rect
		want float64
	}{
		{rect(5, 15, 10, 10), 0},
		{rect(13, 10, 5, 5), 3},
		{rect(13, 19, 5, 5), 4}, // dx=3, dy=4 → L∞ = 4 while Euclidean = 5
	}
	for _, tt := range tests {
		if got := base.ChebyshevDist(tt.s); got != tt.want {
			t.Errorf("ChebyshevDist(%v) = %v, want %v", tt.s, got, tt.want)
		}
	}
}

func TestEnlarge(t *testing.T) {
	r := rect(5, 10, 4, 2)
	e := r.Enlarge(3)
	want := rect(2, 13, 10, 8)
	if e != want {
		t.Errorf("Enlarge = %v, want %v", e, want)
	}
	if got := r.Enlarge(0); got != r {
		t.Errorf("Enlarge(0) = %v, want identity", got)
	}
	// Shrinking is allowed while the result stays well formed.
	if got := e.Enlarge(-3); got != r {
		t.Errorf("Enlarge(-3) = %v, want %v", got, r)
	}
	defer func() {
		if recover() == nil {
			t.Error("Enlarge that inverts the rectangle must panic")
		}
	}()
	r.Enlarge(-10)
}

func TestEnlargeFactor(t *testing.T) {
	r := rect(10, 20, 4, 8)
	e := r.EnlargeFactor(2)
	want := rect(8, 24, 8, 16)
	if e != want {
		t.Errorf("EnlargeFactor(2) = %v, want %v", e, want)
	}
	if got := e.Center(); got != r.Center() {
		t.Errorf("EnlargeFactor must keep the center: got %v, want %v", got, r.Center())
	}
	if got := r.EnlargeFactor(1); got != r {
		t.Errorf("EnlargeFactor(1) = %v, want identity", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative factor must panic")
		}
	}()
	r.EnlargeFactor(-1)
}

func TestString(t *testing.T) {
	if got, want := rect(1, 2.5, 3, 4).String(), "(1, 2.5, 3, 4)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// randomRect produces rectangles in a bounded space with bounded
// dimensions so that property tests exercise overlapping, touching and
// disjoint configurations with reasonable probability.
func randomRect(rng *rand.Rand) Rect {
	return Rect{
		X: math.Floor(rng.Float64()*40) / 2,
		Y: math.Floor(rng.Float64()*40) / 2,
		L: math.Floor(rng.Float64()*20) / 2,
		B: math.Floor(rng.Float64()*20) / 2,
	}
}

func quickCfg() *quick.Config {
	rng := rand.New(rand.NewPCG(42, 7))
	return &quick.Config{
		MaxCount: 2000,
		Values: func(vals []reflect.Value, _ *mrand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(randomRect(rng))
			}
		},
	}
}

func TestPropOverlapIffZeroDist(t *testing.T) {
	prop := func(a, b Rect) bool {
		return a.Overlaps(b) == (a.Dist(b) == 0)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropDistSymmetricAndChebyshevLE(t *testing.T) {
	prop := func(a, b Rect) bool {
		return a.Dist(b) == b.Dist(a) && a.ChebyshevDist(b) <= a.Dist(b)+1e-12
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// contains reports whether s lies entirely inside the closed
// rectangle r.
func contains(r, s Rect) bool {
	return s.MinX() >= r.MinX() && s.MaxX() <= r.MaxX() &&
		s.MinY() >= r.MinY() && s.MaxY() <= r.MaxY()
}

func TestPropIntersectionWithinBoth(t *testing.T) {
	prop := func(a, b Rect) bool {
		inter, ok := a.Intersection(b)
		if !ok {
			return !a.Overlaps(b)
		}
		return contains(a, inter) && contains(b, inter)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropUnionContainsBoth(t *testing.T) {
	prop := func(a, b Rect) bool {
		u := a.Union(b)
		return contains(u, a) && contains(u, b)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropEnlargeOverlapIffWithinDist(t *testing.T) {
	// The §5.3 argument: r1 and r2 are within distance d only if r2
	// overlaps the enlarged rectangle r1^e(d) (the converse does not
	// hold for corner gaps, where the Euclidean distance exceeds d even
	// though the enlarged rectangles overlap).
	prop := func(a, b Rect) bool {
		const d = 3.0
		if a.WithinDist(b, d) && !a.Enlarge(d).Overlaps(b) {
			return false
		}
		// The Chebyshev distance characterises enlarged overlap exactly.
		return a.Enlarge(d).Overlaps(b) == (a.ChebyshevDist(b) <= d)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropDistTriangleViaPoints(t *testing.T) {
	// dist(a, b) is a true minimum: no sampled point pair is closer.
	rng := rand.New(rand.NewPCG(1, 2))
	prop := func(a, b Rect) bool {
		d := a.Dist(b)
		for i := 0; i < 8; i++ {
			p := Point{a.MinX() + rng.Float64()*a.L, a.MinY() + rng.Float64()*a.B}
			q := Point{b.MinX() + rng.Float64()*b.L, b.MinY() + rng.Float64()*b.B}
			if p.Dist(q) < d-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

func BenchmarkOverlaps(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	rects := make([]Rect, 1024)
	for i := range rects {
		rects[i] = randomRect(rng)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		a, c := rects[i%1024], rects[(i*31+7)%1024]
		if a.Overlaps(c) {
			n++
		}
	}
	_ = n
}

func BenchmarkWithinDist(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	rects := make([]Rect, 1024)
	for i := range rects {
		rects[i] = randomRect(rng)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		a, c := rects[i%1024], rects[(i*31+7)%1024]
		if a.WithinDist(c, 2.5) {
			n++
		}
	}
	_ = n
}
