package spatial

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"testing"

	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/query"
)

// The mark goldens pin markCell's decision — which rectangles of which
// cell are marked for replication — to what the commit before the
// closure-cover prune (c6f042c) computed: testdata/mark_golden.json was
// written by this very file running on that commit, where witness still
// enumerated every full local tuple before discarding it. The file is
// frozen. The marked set is a property of the cell's rectangles alone
// (a rectangle is marked iff a witness exists, DESIGN.md §3.1), so
// neither the prune nor the index the candidates come from may change a
// byte of it.
//
// MWSJ_WRITE_MARK_GOLDEN=1 rewrites the file from the current code,
// which is only meaningful on a commit whose marking is the reference.

const markGoldenFile = "testdata/mark_golden.json"

// markGolden is one (query, grid, input) case as the file holds it.
type markGolden struct {
	Name string `json:"name"`
	// Marked[c] is the number of rectangles cell c marks; SHA256 hashes
	// the sorted "cell slot id" lines of every marked rectangle.
	Marked []int  `json:"marked"`
	SHA256 string `json:"sha256"`
}

// markUniformRects draws n of the paper's synthetic rectangles
// (dimensions in (0,100]) at the paper's density.
func markUniformRects(rng *rand.Rand, n int, side float64) []geom.Rect {
	rects := make([]geom.Rect, n)
	for i := range rects {
		l, b := 100*(1-rng.Float64()), 100*(1-rng.Float64())
		rects[i] = geom.Rect{X: rng.Float64() * (side - l), Y: b + rng.Float64()*(side-b), L: l, B: b}
	}
	return rects
}

// markZipfRects draws n rectangles whose cluster membership follows a
// Zipf law (the shape of dataset.ZipfClustered, which this package
// cannot import), a tenth of them uniform background.
func markZipfRects(rng *rand.Rand, n int, side float64) []geom.Rect {
	const clusters = 8
	var cx, cy, cum [clusters]float64
	total := 0.0
	for i := range cx {
		cx[i], cy[i] = rng.Float64()*side, rng.Float64()*side
		total += 1 / math.Pow(float64(i+1), 1.4)
		cum[i] = total
	}
	rects := make([]geom.Rect, n)
	for i := range rects {
		l, b := rng.Float64()*20, rng.Float64()*20
		x, y := rng.Float64()*side, rng.Float64()*side
		if rng.Float64() >= 0.1 {
			u, c := rng.Float64()*total, 0
			for c < clusters-1 && cum[c] < u {
				c++
			}
			x, y = cx[c]+rng.NormFloat64()*side/100, cy[c]+rng.NormFloat64()*side/100
		}
		rects[i] = geom.Rect{X: math.Min(math.Max(x, 0), side-l), Y: math.Min(math.Max(y, b), side), L: l, B: b}
	}
	return rects
}

type markCase struct {
	name string
	q    *query.Query
	rels []Relation
	part *grid.Partitioning
}

// markCases is seven query shapes × {uniform 4×4, adaptive 16} grids ×
// {uniform, Zipf} inputs of 2,000 rectangles per relation.
func markCases(tb testing.TB) []markCase {
	tb.Helper()
	const n, side = 2000, 4500.0
	names := []string{"R1", "R2", "R3", "R4"}
	inputs := []struct {
		name string
		rels []Relation
	}{{name: "uniform"}, {name: "zipf"}}
	for i, name := range names {
		seed := uint64(101 * (i + 1))
		inputs[0].rels = append(inputs[0].rels, NewRelation(name, markUniformRects(rand.New(rand.NewPCG(2013, seed)), n, side)))
	}
	// One Zipf draw dealt round-robin, so the relations' hot clusters
	// coincide — what makes a hot cell's local join large.
	dealt := make([][]geom.Rect, len(names))
	for i, r := range markZipfRects(rand.New(rand.NewPCG(2013, 0x7a697066)), n*len(names), side) {
		dealt[i%len(names)] = append(dealt[i%len(names)], r)
	}
	for i, name := range names {
		inputs[1].rels = append(inputs[1].rels, NewRelation(name, dealt[i]))
	}

	shapes := []struct {
		name  string
		slots []int // relation index per slot
		build func(q *query.Query) *query.Query
	}{
		{"chain2", []int{0, 1}, func(q *query.Query) *query.Query { return q.Overlap(0, 1) }},
		{"chain3-ov-ov", []int{0, 1, 2}, func(q *query.Query) *query.Query { return q.Overlap(0, 1).Overlap(1, 2) }},
		{"hybrid-ov-ra5", []int{0, 1, 2}, func(q *query.Query) *query.Query { return q.Overlap(0, 1).Range(1, 2, 5) }},
		{"chain4", []int{0, 1, 2, 3}, func(q *query.Query) *query.Query { return q.Overlap(0, 1).Range(1, 2, 12).Overlap(2, 3) }},
		{"star3", []int{0, 1, 2}, func(q *query.Query) *query.Query { return q.Overlap(0, 1).Range(0, 2, 8) }},
		{"triangle", []int{0, 1, 2}, func(q *query.Query) *query.Query { return q.Overlap(0, 1).Overlap(1, 2).Range(0, 2, 4) }},
		{"selfstar", []int{0, 0, 0}, func(q *query.Query) *query.Query { return q.Overlap(0, 1).Range(0, 2, 10) }},
	}

	var cases []markCase
	for _, in := range inputs {
		for _, sh := range shapes {
			// Slot names are positional; a self-join is two slots bound
			// to relations of one name.
			rels := make([]Relation, len(sh.slots))
			for s, r := range sh.slots {
				rels[s] = in.rels[r]
			}
			q := sh.build(query.New([]string{"S1", "S2", "S3", "S4"}[:len(rels)]...))
			uni, err := grid.NewUniform(geom.Rect{X: 0, Y: side, L: side, B: side}, 4, 4)
			if err != nil {
				tb.Fatal(err)
			}
			ada, err := BuildPartitioning(PartitionAdaptive, rels, 16, 0)
			if err != nil {
				tb.Fatal(err)
			}
			cases = append(cases,
				markCase{fmt.Sprintf("%s/%s/uniform4x4", sh.name, in.name), q, rels, uni},
				markCase{fmt.Sprintf("%s/%s/adaptive16", sh.name, in.name), q, rels, ada})
		}
	}
	return cases
}

// splitOntoCells is the mark round's map phase: every rectangle goes to
// every cell it has a point in — with a band, only the rectangles in
// their slot's band; a nil band is the unpruned split.
func splitOntoCells(part *grid.Partitioning, rels []Relation, band []float64) [][]tagged {
	cells := make([][]tagged, part.NumCells())
	for s, rel := range rels {
		for _, it := range rel.Items {
			if band != nil && !inMarkBand(part, it.R, band[s]) {
				continue
			}
			part.ForEachSplit(it.R, func(c grid.CellID) {
				cells[c] = append(cells[c], tagged{Slot: int8(s), ID: it.ID, Rect: it.R})
			})
		}
	}
	return cells
}

func markGoldenOf(tb testing.TB, mc markCase) markGolden {
	tb.Helper()
	pl, err := newPlan(mc.q, mc.rels, true)
	if err != nil {
		tb.Fatal(err)
	}
	g := markGolden{Name: mc.name}
	h := sha256.New()
	for c, items := range splitOntoCells(mc.part, mc.rels, nil) {
		cd := newCellData(pl.m, items)
		marked := markCell(pl, mc.part, grid.CellID(c), cd)
		var lines []string
		for s := range marked {
			for j, m := range marked[s] {
				if m {
					lines = append(lines, fmt.Sprintf("%d %d %08d\n", c, s, cd.ids[s][j]))
				}
			}
		}
		sort.Strings(lines)
		for _, l := range lines {
			h.Write([]byte(l))
		}
		g.Marked = append(g.Marked, len(lines))
	}
	g.SHA256 = hex.EncodeToString(h.Sum(nil))
	return g
}

func TestMarkGolden(t *testing.T) {
	var got []markGolden
	total := 0
	for _, mc := range markCases(t) {
		g := markGoldenOf(t, mc)
		for _, n := range g.Marked {
			total += n
		}
		got = append(got, g)
	}
	if os.Getenv("MWSJ_WRITE_MARK_GOLDEN") != "" {
		// One case per line: a changed case is a one-line diff.
		buf := bytes.NewBufferString("[\n")
		for i, g := range got {
			line, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				buf.WriteString(",\n")
			}
			buf.Write(line)
		}
		buf.WriteString("\n]\n")
		if err := os.WriteFile(markGoldenFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d cases, %d marks", markGoldenFile, len(got), total)
		return
	}
	data, err := os.ReadFile(markGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []markGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("case %d is %q, golden has %q", i, g.Name, w.Name)
		}
		if g.SHA256 != w.SHA256 {
			t.Errorf("%s: marked set differs from the parent's\n per-cell counts got  %v\n per-cell counts want %v", w.Name, g.Marked, w.Marked)
		}
	}
}

// markedByDefinition evaluates §3.1's definition directly: a rectangle
// is marked iff it starts in the cell and belongs to a witness — a
// consistent assignment over a non-empty proper subset S of the slots
// (every query edge inside S satisfied, self-join slots distinct) in
// which every member escapes the cell through every edge of its slot
// that leaves S. Nothing is searched cleverly: all subsets, all
// assignments.
func markedByDefinition(pl *plan, part *grid.Partitioning, c grid.CellID, cd *cellData) [][]bool {
	marked := make([][]bool, pl.m)
	for s := range marked {
		marked[s] = make([]bool, len(cd.ids[s]))
	}
	escapes := func(r geom.Rect, e query.Edge) bool {
		if e.Pred.Kind == query.Overlap {
			return part.Crosses(r)
		}
		return part.OtherCellWithin(r, c, e.Pred.D)
	}
	assign := make([]int, pl.m)
	for mask := 1; mask < 1<<pl.m-1; mask++ {
		in := func(s int) bool { return mask>>s&1 == 1 }
		var rec func(s int)
		rec = func(s int) {
			if s == pl.m {
				for t := range assign {
					if in(t) && part.Project(cd.rects[t][assign[t]]) == c {
						marked[t][assign[t]] = true
					}
				}
				return
			}
			if !in(s) {
				rec(s + 1)
				return
			}
		next:
			for j, r := range cd.rects[s] {
				for _, e := range pl.q.EdgesAt(s) {
					o := e.Other(s)
					switch {
					case !in(o):
						if !escapes(r, e) {
							continue next
						}
					case o < s:
						if !e.Pred.Eval(r, cd.rects[o][assign[o]]) {
							continue next
						}
					}
				}
				for o := 0; o < s; o++ {
					if in(o) && !pl.compatible(o, cd.ids[o][assign[o]], s, cd.ids[s][j]) {
						continue next
					}
				}
				assign[s] = j
				rec(s + 1)
			}
		}
		rec(0)
	}
	return marked
}

// TestMarkCellMatchesDefinition checks markCell's forced-closure search
// against the brute-force reading of its definition on random tiny
// cells: ≤ 6 items per slot, m ≤ 4, overlap and range edges, self-join
// slots, rectangles on and across the cell border.
func TestMarkCellMatchesDefinition(t *testing.T) {
	part, err := grid.NewUniform(geom.Rect{X: 0, Y: 90, L: 90, B: 90}, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	const centre = grid.CellID(4) // [30,60]², a neighbour on every side
	shapes := []struct {
		name  string
		slots []string // dataset per slot; a repeated one is a self-join
		build func(q *query.Query) *query.Query
	}{
		{"chain2-ov", []string{"A", "B"}, func(q *query.Query) *query.Query { return q.Overlap(0, 1) }},
		{"chain2-ra", []string{"A", "B"}, func(q *query.Query) *query.Query { return q.Range(0, 1, 4) }},
		{"chain3-ov-ra", []string{"A", "B", "C"}, func(q *query.Query) *query.Query { return q.Overlap(0, 1).Range(1, 2, 5) }},
		{"star3", []string{"A", "B", "C"}, func(q *query.Query) *query.Query { return q.Range(0, 1, 3).Overlap(0, 2) }},
		{"triangle", []string{"A", "B", "C"}, func(q *query.Query) *query.Query { return q.Overlap(0, 1).Overlap(1, 2).Range(0, 2, 6) }},
		{"chain4", []string{"A", "B", "C", "D"}, func(q *query.Query) *query.Query { return q.Overlap(0, 1).Range(1, 2, 4).Overlap(2, 3) }},
		{"cycle4", []string{"A", "B", "C", "D"}, func(q *query.Query) *query.Query {
			return q.Overlap(0, 1).Overlap(1, 2).Overlap(2, 3).Range(3, 0, 8)
		}},
		{"selfchain3", []string{"A", "A", "B"}, func(q *query.Query) *query.Query { return q.Overlap(0, 1).Range(1, 2, 5) }},
	}
	rng := rand.New(rand.NewPCG(21, 0x6d61726b))
	// Coordinates come from a coarse lattice so that borders, shared
	// edges and distance-exactly-d pairs all occur.
	coord := func() float64 { return 24 + 2*float64(rng.IntN(22)) }
	for _, sh := range shapes {
		q := sh.build(query.New([]string{"S1", "S2", "S3", "S4"}[:len(sh.slots)]...))
		rels := make([]Relation, len(sh.slots))
		for s, name := range sh.slots {
			rels[s] = NewRelation(name, nil)
		}
		pl, err := newPlan(q, rels, true)
		if err != nil {
			t.Fatal(err)
		}
		var yes, no int
		for trial := 0; trial < 300; trial++ {
			var items []tagged
			for s := 0; s < pl.m; s++ {
				for j, n := 0, rng.IntN(7); j < n; j++ {
					r := geom.Rect{X: coord(), Y: coord(), L: 2 * float64(rng.IntN(6)), B: 2 * float64(rng.IntN(6))}
					reaches := false
					part.ForEachSplit(r, func(c grid.CellID) { reaches = reaches || c == centre })
					if !reaches {
						continue // the mark round's map would not send it here
					}
					// Self-join slots draw from one id space, so equal ids
					// on two slots of one dataset do occur.
					items = append(items, tagged{Slot: int8(s), ID: int32(rng.IntN(8)), Rect: r})
				}
			}
			cd := newCellData(pl.m, items)
			got := markCell(pl, part, centre, cd)
			want := markedByDefinition(pl, part, centre, cd)
			for s := range want {
				for j := range want[s] {
					if got[s][j] != want[s][j] {
						t.Fatalf("%s trial %d: slot %d item %d (%v): markCell says %v, the definition %v\nitems: %+v",
							sh.name, trial, s, j, cd.rects[s][j], got[s][j], want[s][j], items)
					}
					if want[s][j] {
						yes++
					} else if part.Project(cd.rects[s][j]) == centre {
						no++
					}
				}
			}
		}
		if yes < 100 || no < 100 {
			t.Errorf("%s: %d marked and %d unmarked rectangles starting in the cell — the cells no longer exercise both answers", sh.name, yes, no)
		}
	}
}

// BenchmarkMarkCell marks one hot cell under the benchmark's hybrid
// query: a Gaussian cluster (σ = 500, dimensions up to 20 — the Zipf
// generator's hot cluster) centred on the middle cell of a 3×3 grid
// whose cuts lie one σ out, so the cell receives about 3 × 3,000 of the
// 3 × 6,500 rectangles and its borders run through dense data.
func BenchmarkMarkCell(b *testing.B) {
	rng := rand.New(rand.NewPCG(2013, 0x686f74))
	rels := make([]Relation, 3)
	for s := range rels {
		rects := make([]geom.Rect, 6500)
		for i := range rects {
			rects[i] = geom.Rect{X: 1500 + 500*rng.NormFloat64(), Y: 1500 + 500*rng.NormFloat64(), L: 20 * rng.Float64(), B: 20 * rng.Float64()}
		}
		rels[s] = NewRelation(fmt.Sprintf("R%d", s+1), rects)
	}
	part, err := grid.NewUniform(geom.Rect{X: 0, Y: 3000, L: 3000, B: 3000}, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 5)
	pl, err := newPlan(q, rels, true)
	if err != nil {
		b.Fatal(err)
	}
	const centre = grid.CellID(4)
	cd := newCellData(pl.m, splitOntoCells(part, rels, nil)[centre])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marked := markCell(pl, part, centre, cd)
		if i == 0 {
			n := 0
			for s := range marked {
				for _, m := range marked[s] {
					if m {
						n++
					}
				}
			}
			b.ReportMetric(float64(n), "marked")
			b.ReportMetric(float64(len(cd.ids[0])+len(cd.ids[1])+len(cd.ids[2])), "rects")
		}
	}
}
