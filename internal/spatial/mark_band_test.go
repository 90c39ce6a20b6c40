package spatial

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/query"
)

// The band battery holds the mark round's map-side prune (markBand,
// inMarkBand) to the round it replaced: markCell over the band must mark
// exactly the rectangles markCell marks over the unpruned split, which
// TestMarkGolden and TestMarkCellMatchesDefinition pin to the definition.

// slotDiagonals returns each slot's largest rectangle diagonal, the dmax
// the mark round derives its band from.
func slotDiagonals(rels []Relation) []float64 {
	dmax := make([]float64, len(rels))
	for s, rel := range rels {
		dmax[s] = rel.MaxDiagonal()
	}
	return dmax
}

// markRound runs the mark round in process: split onto cells (only the
// band, unless band is nil), markCell per cell. It returns how often each
// relation record was marked and how many (cell, rectangle) pairs the
// split shipped.
func markRound(pl *plan, part *grid.Partitioning, rels []Relation, band []float64) (map[tagged]int, int) {
	marked := map[tagged]int{}
	shipped := 0
	for c, items := range splitOntoCells(part, rels, band) {
		shipped += len(items)
		cd := newCellData(pl.m, items)
		for s, ms := range markCell(pl, part, grid.CellID(c), cd) {
			for j, ok := range ms {
				if ok {
					marked[tagged{Slot: int8(s), ID: cd.ids[s][j], Rect: cd.rects[s][j]}]++
				}
			}
		}
	}
	return marked, shipped
}

// assertBandMarksEqual runs the pruned and the unpruned mark round and
// requires the same marks; it returns the two rounds' shipped pairs and
// the marks.
func assertBandMarksEqual(tb testing.TB, name string, q *query.Query, rels []Relation, part *grid.Partitioning) (pruned, full, marks int) {
	tb.Helper()
	pl, err := newPlan(q, rels, true)
	if err != nil {
		tb.Fatal(err)
	}
	band, err := markBand(q, slotDiagonals(rels))
	if err != nil {
		tb.Fatal(err)
	}
	want, full := markRound(pl, part, rels, nil)
	got, pruned := markRound(pl, part, rels, band)
	if !reflect.DeepEqual(got, want) {
		for k, n := range want {
			if got[k] != n {
				tb.Errorf("%s: %+v marked %d times over the band, %d over the full split (band %v)", name, k, got[k], n, band)
			}
		}
		for k, n := range got {
			if _, ok := want[k]; !ok {
				tb.Errorf("%s: %+v marked %d times over the band, never over the full split", name, k, n)
			}
		}
		tb.FailNow()
	}
	return pruned, full, len(want)
}

// bandByDefinition evaluates the band width as DESIGN.md §3.1 derives
// it: for every connected proper subset S of the slots holding i, the
// smallest path_S(i, w) + [w ≠ i]·dmax[w] + weight(e) over the edges
// (w, e) leaving S, and the largest of those over S. path_S charges Σ
// edge weights + Σ intermediate dmax over paths inside S.
func bandByDefinition(q *query.Query, dmax []float64) []float64 {
	m := q.NumSlots()
	edges := q.Edges()
	band := make([]float64, m)
	for i := range band {
		band[i] = math.Inf(-1)
		for S := 1; S < 1<<m-1; S++ {
			in := func(s int) bool { return S>>s&1 == 1 }
			if !in(i) {
				continue
			}
			// Bellman–Ford inside S; stepping on from a slot other than i
			// crosses it, which charges its dmax.
			dist := make([]float64, m)
			for s := range dist {
				dist[s] = math.Inf(1)
			}
			dist[i] = 0
			for range m {
				for _, e := range edges {
					if !in(e.A) || !in(e.B) {
						continue
					}
					for _, a := range []int{e.A, e.B} {
						via := dist[a] + e.Pred.Weight()
						if a != i {
							via += dmax[a]
						}
						if b := e.Other(a); via < dist[b] {
							dist[b] = via
						}
					}
				}
			}
			connected := true
			for s := 0; s < m; s++ {
				connected = connected && (!in(s) || !math.IsInf(dist[s], 1))
			}
			if !connected {
				continue
			}
			least := math.Inf(1)
			for _, e := range edges {
				for _, w := range []int{e.A, e.B} {
					if !in(w) || in(e.Other(w)) {
						continue
					}
					b := dist[w] + e.Pred.Weight()
					if w != i {
						b += dmax[w]
					}
					least = math.Min(least, b)
				}
			}
			band[i] = math.Max(band[i], least)
		}
	}
	return band
}

// randomMarkQuery draws a connected query over m slots: a random
// spanning tree plus up to two extra edges (cycles), each ov or ra(d)
// with d from ds.
func randomMarkQuery(rng *rand.Rand, m int, ds []float64) *query.Query {
	q := query.New([]string{"S1", "S2", "S3", "S4", "S5"}[:m]...)
	pred := func() query.Predicate {
		if rng.IntN(2) == 0 {
			return query.Ov()
		}
		return query.Ra(ds[rng.IntN(len(ds))])
	}
	for s := 1; s < m; s++ {
		q.On(rng.IntN(s), s, pred())
	}
	for k := rng.IntN(3); k > 0 && m > 2; k-- {
		a, b := rng.IntN(m), rng.IntN(m)
		if a != b {
			q.On(a, b, pred())
		}
	}
	return q
}

func TestMarkBandWidths(t *testing.T) {
	near := func(got, want []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] && math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	for _, tc := range []struct {
		name string
		q    *query.Query
		dmax []float64
		want []float64
	}{
		// The benchmark's query: u of R1 is marked only with an R2
		// partner that escapes through ra(5), so R1 reaches one R2
		// diagonal plus 5 in; R2 must escape itself; R3 mirrors R1.
		{"ov-ra5", query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 5), []float64{10, 28.17, 3}, []float64{33.17, 5, 33.17}},
		{"m=1", query.New("R1"), []float64{7}, []float64{math.Inf(-1)}},
		{"cycle4", query.New("R1", "R2", "R3", "R4").Overlap(0, 1).Overlap(1, 2).Overlap(2, 3).Range(3, 0, 8), []float64{5, 5, 5, 5}, []float64{8, 5, 5, 8}},
	} {
		got, err := markBand(tc.q, tc.dmax)
		if err != nil {
			t.Fatal(err)
		}
		if !near(got, tc.want) {
			t.Errorf("%s: markBand = %v, want %v", tc.name, got, tc.want)
		}
		if def := bandByDefinition(tc.q, tc.dmax); !near(def, tc.want) {
			t.Errorf("%s: the definition gives %v, want %v", tc.name, def, tc.want)
		}
	}

	// Random chains, stars and cycles: the max-min over every S is the
	// C-Rep-L radius that markBand returns.
	rng := rand.New(rand.NewPCG(26, 0x62616e64))
	for trial := 0; trial < 2000; trial++ {
		m := 2 + rng.IntN(4)
		q := randomMarkQuery(rng, m, []float64{0, 0.5, 3, 12, 40})
		dmax := make([]float64, m)
		for s := range dmax {
			dmax[s] = []float64{0, 1, 7.5, 30}[rng.IntN(4)] * rng.Float64()
		}
		got, err := markBand(q, dmax)
		if err != nil {
			t.Fatal(err)
		}
		if def := bandByDefinition(q, dmax); !near(got, def) {
			t.Fatalf("%v with dmax %v: markBand = %v, the definition %v", q, dmax, got, def)
		}
	}
}

// TestMarkBandMatchesFullMarking runs the pruned mark round against the
// unpruned one on every mark_golden.json case and on random chains,
// stars and cycles mixing ov with ra(d) of several d, self-joins among
// them, over uniform, adaptive and data-cut grids.
func TestMarkBandMatchesFullMarking(t *testing.T) {
	var pruned, full, marks int
	for _, mc := range markCases(t) {
		p, f, n := assertBandMarksEqual(t, mc.name, mc.q, mc.rels, mc.part)
		pruned, full, marks = pruned+p, full+f, marks+n
	}
	t.Logf("golden cases: %d marks; the band ships %d of %d split pairs", marks, pruned, full)
	if marks == 0 || pruned*2 > full {
		t.Errorf("golden cases: %d marks, %d of %d pairs shipped — the battery no longer exercises the prune", marks, pruned, full)
	}

	const side = 600.0
	rng := rand.New(rand.NewPCG(26, 0x66756c6c))
	pruned, full, marks = 0, 0, 0
	for trial := 0; trial < 24; trial++ {
		m := 2 + trial%3
		q := randomMarkQuery(rng, m, []float64{0, 2, 9, 25})
		rels := make([]Relation, m)
		for s := range rels {
			rects := markUniformRects(rand.New(rand.NewPCG(uint64(trial), uint64(s))), 400, side)
			for i := range rects {
				// Dimensions per slot, so dmax differs between slots.
				rects[i].L *= float64(s+1) / 8
				rects[i].B *= float64(s+1) / 8
			}
			rels[s] = NewRelation([]string{"A", "B", "C", "D"}[s], rects)
		}
		if trial%3 == 0 {
			rels[1] = rels[0] // a self-join
		}
		uni, err := grid.NewUniform(geom.Rect{X: 0, Y: side, L: side, B: side}, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		ada, err := BuildPartitioning(PartitionAdaptive, rels, 16, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Cuts on the data's own start points: rectangles begin exactly on
		// a cell boundary.
		xs, ys := []float64{0, side}, []float64{0, side}
		for _, rel := range rels {
			for _, it := range rel.Items[:3] {
				xs, ys = append(xs, it.R.X), append(ys, it.R.Y)
			}
		}
		slices.Sort(xs)
		slices.Sort(ys)
		onData, err := grid.NewFromCuts(slices.Compact(xs), slices.Compact(ys))
		if err != nil {
			t.Fatal(err)
		}
		for gname, part := range map[string]*grid.Partitioning{"uniform": uni, "adaptive": ada, "on-data": onData} {
			p, f, n := assertBandMarksEqual(t, fmt.Sprintf("trial %d %v %s", trial, q, gname), q, rels, part)
			pruned, full, marks = pruned+p, full+f, marks+n
		}
	}
	t.Logf("random cases: %d marks; the band ships %d of %d split pairs", marks, pruned, full)
	if marks == 0 || pruned >= full {
		t.Errorf("random cases: %d marks, %d of %d pairs shipped — the battery no longer exercises the prune", marks, pruned, full)
	}
}

// FuzzMarkBand draws tiny cells — a handful of rectangles per slot on a
// coarse lattice, so cuts, shared edges and distance-exactly-d pairs
// occur — and a random connected query, and requires the band's marks
// to equal the full split's.
func FuzzMarkBand(f *testing.F) {
	for seed := range uint64(8) {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(shape)))
		m := 2 + int(shape)%3
		q := randomMarkQuery(rng, m, []float64{0, 1, 2.5, 4, 7})
		lattice := func() float64 { return 0.5 * float64(rng.IntN(25)) }
		rels := make([]Relation, m)
		for s := range rels {
			rects := make([]geom.Rect, rng.IntN(7))
			for i := range rects {
				rects[i] = geom.Rect{X: lattice(), Y: lattice(), L: lattice() / 3, B: lattice() / 3}
				if shape&0x10 != 0 {
					rects[i].X += rng.Float64()
				}
			}
			rels[s] = NewRelation([]string{"A", "B", "A", "C", "B"}[s], rects)
		}
		part, err := grid.NewUniform(geom.Rect{X: 0, Y: 12, L: 12, B: 12}, 3, 3)
		if shape&0x20 != 0 {
			part, err = grid.NewFromCuts([]float64{0, 2.5, 4, 9, 12}, []float64{0, 3, 3.5, 12})
		}
		if err != nil {
			t.Fatal(err)
		}
		assertBandMarksEqual(t, q.String(), q, rels, part)
	})
}
