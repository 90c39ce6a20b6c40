package spatial

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/query"
)

// grid2x2 builds a 2×2 partitioning over [0,100]²: cell 0 = top-left
// (c1 in paper figures), 1 = top-right, 2 = bottom-left, 3 =
// bottom-right.
func grid2x2(t testing.TB) *grid.Partitioning {
	t.Helper()
	p, err := grid.NewUniform(geom.Rect{X: 0, Y: 100, L: 100, B: 100}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// chain4 is the paper's Q1: R1 Ov R2 and R2 Ov R3 and R3 Ov R4.
func chain4() *query.Query {
	return query.New("R1", "R2", "R3", "R4").Overlap(0, 1).Overlap(1, 2).Overlap(2, 3)
}

// figure4Relations builds a concrete instance of the §7.6/Figure 4
// scenario on a 2×2 grid:
//
//   - u1 (R1) sits inside cell c1 and overlaps v1;
//   - v1 (R2) starts in c1 and crosses into c2;
//   - w1 (R3) starts in c2, crosses down into c4, overlaps v1;
//   - x1 (R4) sits inside c4 and overlaps w1;
//   - v2 (R2) is an isolated non-crossing rectangle in c1;
//   - u2 (R1) is an isolated non-crossing rectangle in c2.
//
// The single output tuple is (u1, v1, w1, x1); the §6.2 dup point is
// (54, 48), owned by c4.
func figure4Relations() []Relation {
	u1 := geom.Rect{X: 10, Y: 90, L: 5, B: 5}
	u2 := geom.Rect{X: 80, Y: 90, L: 3, B: 3}
	v1 := geom.Rect{X: 12, Y: 88, L: 45, B: 5}
	v2 := geom.Rect{X: 30, Y: 70, L: 4, B: 4}
	w1 := geom.Rect{X: 54, Y: 86, L: 5, B: 40}
	x1 := geom.Rect{X: 52, Y: 48, L: 5, B: 5}
	return []Relation{
		NewRelation("R1", []geom.Rect{u1, u2}),
		NewRelation("R2", []geom.Rect{v1, v2}),
		NewRelation("R3", []geom.Rect{w1}),
		NewRelation("R4", []geom.Rect{x1}),
	}
}

// isMarked reads markCell's flag for the item of slot s with the given
// id: a cell's slots are in sweep order, not in the order items arrive.
func isMarked(cd *cellData, marked [][]bool, s int, id int32) bool {
	for j, got := range cd.ids[s] {
		if got == id {
			return marked[s][j]
		}
	}
	panic(fmt.Sprintf("slot %d holds no item %d", s, id))
}

func TestMarkCellFigure4(t *testing.T) {
	part := grid2x2(t)
	q := chain4()
	rels := figure4Relations()
	pl, err := newPlan(q, rels, true)
	if err != nil {
		t.Fatal(err)
	}

	// Reducer c1 (cell 0) receives the items split onto it: u1, v1, v2.
	items := []tagged{
		{Slot: 0, ID: 0, Rect: rels[0].Items[0].R}, // u1
		{Slot: 1, ID: 0, Rect: rels[1].Items[0].R}, // v1
		{Slot: 1, ID: 1, Rect: rels[1].Items[1].R}, // v2
	}
	cd := newCellData(pl.m, items)
	marked := markCell(pl, part, 0, cd)

	// v1 crosses → marked (singleton witness). u1 does not cross but
	// overlaps the crossing v1 → marked via the witness {u1, v1}
	// (condition C1 + C2, §7.6). v2 is isolated and interior → not
	// marked (fails C2 exactly like U5 = (v2, w1) in §7.7).
	if !isMarked(cd, marked, 0, 0) {
		t.Error("u1 must be marked (witness {u1, v1})")
	}
	if !isMarked(cd, marked, 1, 0) {
		t.Error("v1 must be marked (crossing)")
	}
	if isMarked(cd, marked, 1, 1) {
		t.Error("v2 must not be marked (interior, no witness)")
	}

	// Reducer c2 (cell 1) receives v1 (crossing in), w1, u2. Only w1
	// and u2 start in c2; w1 crosses → marked; u2 is isolated → not.
	items = []tagged{
		{Slot: 1, ID: 0, Rect: rels[1].Items[0].R}, // v1 (starts in c1)
		{Slot: 2, ID: 0, Rect: rels[2].Items[0].R}, // w1
		{Slot: 0, ID: 1, Rect: rels[0].Items[1].R}, // u2
	}
	cd = newCellData(pl.m, items)
	marked = markCell(pl, part, 1, cd)
	if !isMarked(cd, marked, 2, 0) {
		t.Error("w1 must be marked (crossing)")
	}
	if isMarked(cd, marked, 0, 1) {
		t.Error("u2 must not be marked (isolated)")
	}
	// v1 does not start in c2, so c2 must not mark it (its own cell
	// already decides).
	if isMarked(cd, marked, 1, 0) {
		t.Error("v1 must not be marked by c2 — it starts in c1")
	}
}

// TestMarkCellFullLocalTuple exercises the C3 boundary case of §7.7
// (rectangle-set U4): when a whole output tuple is local to one cell
// and nothing crosses, no rectangle is marked.
func TestMarkCellFullLocalTuple(t *testing.T) {
	part := grid2x2(t)
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	rels := []Relation{
		NewRelation("R1", []geom.Rect{{X: 10, Y: 90, L: 5, B: 5}}),
		NewRelation("R2", []geom.Rect{{X: 12, Y: 88, L: 5, B: 5}}),
		NewRelation("R3", []geom.Rect{{X: 14, Y: 86, L: 5, B: 5}}),
	}
	pl, err := newPlan(q, rels, true)
	if err != nil {
		t.Fatal(err)
	}
	items := []tagged{
		{Slot: 0, ID: 0, Rect: rels[0].Items[0].R},
		{Slot: 1, ID: 0, Rect: rels[1].Items[0].R},
		{Slot: 2, ID: 0, Rect: rels[2].Items[0].R},
	}
	cd := newCellData(pl.m, items)
	marked := markCell(pl, part, 0, cd)
	for s := range marked {
		for j, m := range marked[s] {
			if m {
				t.Errorf("slot %d item %d marked, but the tuple is fully local (C3)", s, j)
			}
		}
	}
	// The tuple must still be produced — by the cell itself.
	res, err := Execute(ControlledReplicate, q, rels, Config{Part: part})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("local tuple lost: got %v", res.Tuples)
	}
	if res.Stats.RectanglesReplicated != 0 {
		t.Errorf("replicated %d rectangles, want 0", res.Stats.RectanglesReplicated)
	}
}

// TestMarkCellRangeEscape verifies the §8 revision of condition C2: a
// non-crossing rectangle within distance d of another cell is marked
// for a range query, but not when every other cell is further than d.
func TestMarkCellRangeEscape(t *testing.T) {
	part := grid2x2(t)
	const d = 10.0
	q := query.New("R1", "R2").Range(0, 1, d)
	// a sits 5 units left of the vertical cut at x=50: cell c2 is
	// within d → marked. b sits in the middle of c1, > d from any
	// other cell → not marked, even though both are consistent
	// singletons.
	a := geom.Rect{X: 43, Y: 80, L: 2, B: 2}
	b := geom.Rect{X: 20, Y: 80, L: 2, B: 2}
	rels := []Relation{
		NewRelation("R1", []geom.Rect{a, b}),
		NewRelation("R2", nil),
	}
	pl, err := newPlan(q, rels, true)
	if err != nil {
		t.Fatal(err)
	}
	items := []tagged{
		{Slot: 0, ID: 0, Rect: a},
		{Slot: 0, ID: 1, Rect: b},
	}
	cd := newCellData(pl.m, items)
	marked := markCell(pl, part, 0, cd)
	if !isMarked(cd, marked, 0, 0) {
		t.Error("rectangle within d of cell c2 must be marked")
	}
	if isMarked(cd, marked, 0, 1) {
		t.Error("rectangle far from all other cells must not be marked")
	}
}

func TestControlledReplicateFigure4EndToEnd(t *testing.T) {
	part := grid2x2(t)
	q := chain4()
	rels := figure4Relations()
	res, err := Execute(ControlledReplicate, q, rels, Config{Part: part})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 || !reflect.DeepEqual(res.Tuples[0].IDs, []int32{0, 0, 0, 0}) {
		t.Fatalf("tuples = %v, want [(u1,v1,w1,x1)]", res.Tuples)
	}
	// u1, v1, w1, x1 are marked; u2, v2 are not.
	if res.Stats.RectanglesReplicated != 4 {
		t.Errorf("replicated = %d, want 4", res.Stats.RectanglesReplicated)
	}
	// All-Replicate must replicate all 6.
	resAll, err := Execute(AllReplicate, q, rels, Config{Part: part})
	if err != nil {
		t.Fatal(err)
	}
	if resAll.Stats.RectanglesReplicated != 6 {
		t.Errorf("All-Rep replicated = %d, want 6", resAll.Stats.RectanglesReplicated)
	}
	if resAll.Stats.RectanglesAfterReplication <= res.Stats.RectanglesAfterReplication {
		t.Errorf("All-Rep must ship more copies: %d vs %d",
			resAll.Stats.RectanglesAfterReplication, res.Stats.RectanglesAfterReplication)
	}
	if !reflect.DeepEqual(resAll.TupleSet(), res.TupleSet()) {
		t.Error("All-Rep and C-Rep disagree")
	}
}

// randomRelations builds nRel relations of n rectangles each in a
// space×space box with dimensions up to maxDim.
func randomRelations(rng *rand.Rand, nRel, n int, space, maxDim float64) []Relation {
	names := []string{"R1", "R2", "R3", "R4", "R5"}
	rels := make([]Relation, nRel)
	for i := range rels {
		rects := make([]geom.Rect, n)
		for j := range rects {
			rects[j] = geom.Rect{
				X: rng.Float64() * space,
				Y: rng.Float64() * space,
				L: rng.Float64() * maxDim,
				B: rng.Float64() * maxDim,
			}
		}
		rels[i] = NewRelation(names[i], rects)
	}
	return rels
}

// testGrid builds an n×n grid over the [0, space]² box (slightly
// enlarged so out-of-box rectangle edges stay in play).
func testGrid(t testing.TB, n int, space float64) *grid.Partitioning {
	t.Helper()
	p, err := grid.NewUniform(geom.Rect{X: 0, Y: space, L: space, B: space}, n, n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReplicationOrdering checks the paper's headline cost ordering on
// a random workload: C-Rep marks far fewer rectangles than All-Rep
// replicates, and C-Rep-L ships no more copies than C-Rep.
func TestReplicationOrdering(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	rels := randomRelations(rng, 3, 400, 1000, 30)
	part := testGrid(t, 8, 1000)

	all, err := Execute(AllReplicate, q, rels, Config{Part: part})
	if err != nil {
		t.Fatal(err)
	}
	crep, err := Execute(ControlledReplicate, q, rels, Config{Part: part})
	if err != nil {
		t.Fatal(err)
	}
	crepl, err := Execute(ControlledReplicateLimit, q, rels, Config{Part: part})
	if err != nil {
		t.Fatal(err)
	}
	if crep.Stats.RectanglesReplicated >= all.Stats.RectanglesReplicated/2 {
		t.Errorf("C-Rep marked %d of %d rectangles; expected a large reduction",
			crep.Stats.RectanglesReplicated, all.Stats.RectanglesReplicated)
	}
	if crepl.Stats.RectanglesReplicated != crep.Stats.RectanglesReplicated {
		t.Errorf("C-Rep-L marks the same set: %d vs %d",
			crepl.Stats.RectanglesReplicated, crep.Stats.RectanglesReplicated)
	}
	if crepl.Stats.RectanglesAfterReplication > crep.Stats.RectanglesAfterReplication {
		t.Errorf("C-Rep-L after-replication %d exceeds C-Rep's %d",
			crepl.Stats.RectanglesAfterReplication, crep.Stats.RectanglesAfterReplication)
	}
	if all.Stats.RectanglesAfterReplication <= crep.Stats.RectanglesAfterReplication {
		t.Errorf("All-Rep must ship the most copies")
	}
	// Cascade pays in DFS traffic instead: it writes the intermediate
	// join result, C-Rep only the marked flags.
	casc, err := Execute(Cascade, q, rels, Config{Part: part})
	if err != nil {
		t.Fatal(err)
	}
	if casc.Stats.DFS.BytesWritten <= crep.Stats.DFS.BytesWritten {
		t.Logf("note: cascade wrote %d DFS bytes vs C-Rep %d (workload produced a small intermediate)",
			casc.Stats.DFS.BytesWritten, crep.Stats.DFS.BytesWritten)
	}
}

func TestSelfJoinDistinctness(t *testing.T) {
	// Two overlapping rectangles in one dataset, star query A ov B.
	base := NewRelation("R", []geom.Rect{
		{X: 10, Y: 90, L: 10, B: 10},
		{X: 15, Y: 85, L: 10, B: 10},
	})
	q := query.New("A", "B").Overlap(0, 1)
	part := grid2x2(t)

	strict, err := Execute(BruteForce, q, []Relation{base, base}, Config{Part: part})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct: (0,1) and (1,0) only.
	if len(strict.Tuples) != 2 {
		t.Errorf("distinct self-join: %d tuples, want 2: %v", len(strict.Tuples), strict.Tuples)
	}
	loose, err := Execute(BruteForce, q, []Relation{base, base}, Config{Part: part, AllowSelfPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	// With self pairs: (0,0), (0,1), (1,0), (1,1).
	if len(loose.Tuples) != 4 {
		t.Errorf("loose self-join: %d tuples, want 4: %v", len(loose.Tuples), loose.Tuples)
	}
	// Distributed methods respect the same semantics.
	for _, method := range []Method{Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit} {
		got, err := Execute(method, q, []Relation{base, base}, Config{Part: part})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if !reflect.DeepEqual(got.TupleSet(), strict.TupleSet()) {
			t.Errorf("%v self-join tuples = %v, want %v", method, got.Tuples, strict.Tuples)
		}
	}
}

func TestEmptyAndSingleRelation(t *testing.T) {
	part := grid2x2(t)
	q := query.New("R1", "R2").Overlap(0, 1)
	rels := []Relation{
		NewRelation("R1", []geom.Rect{{X: 10, Y: 90, L: 5, B: 5}}),
		NewRelation("R2", nil),
	}
	for _, method := range Methods() {
		res, err := Execute(method, q, rels, Config{Part: part})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if len(res.Tuples) != 0 {
			t.Errorf("%v: join with empty relation returned %v", method, res.Tuples)
		}
	}
	// Single-slot query: every rectangle is a tuple.
	q1 := query.New("R")
	r1 := []Relation{NewRelation("R", []geom.Rect{{X: 10, Y: 90, L: 5, B: 5}, {X: 60, Y: 40, L: 5, B: 5}})}
	for _, method := range Methods() {
		res, err := Execute(method, q1, r1, Config{Part: part})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if len(res.Tuples) != 2 {
			t.Errorf("%v: single-slot query returned %d tuples, want 2", method, len(res.Tuples))
		}
		// FuzzJoin's queries have two slots or more, so CountOnly's
		// single-slot path is checked here.
		if counted, err := Execute(method, q1, r1, Config{Part: part, CountOnly: true}); err != nil {
			t.Errorf("%v: single-slot CountOnly: %v", method, err)
		} else if counted.Stats.OutputTuples != 2 || len(counted.Tuples) != 0 {
			t.Errorf("%v: single-slot CountOnly counted %d tuples and kept %d, want 2 and none", method, counted.Stats.OutputTuples, len(counted.Tuples))
		}
		// The cascade reads its one slot as every join reads a slot:
		// one whole read of the staged relation.
		if d := res.Stats.DFS; method == Cascade && (d.BytesRead != 2*dfs.MBBRecordBytes || d.RecordsRead != 2) {
			t.Errorf("single-slot Cascade read %d bytes, %d records; want one read of the staged relation, %d bytes, 2 records", d.BytesRead, d.RecordsRead, 2*dfs.MBBRecordBytes)
		}
	}
}

func TestExecuteValidation(t *testing.T) {
	part := grid2x2(t)
	q := query.New("R1", "R2").Overlap(0, 1)
	ok := []Relation{NewRelation("R1", nil), NewRelation("R2", nil)}
	if _, err := Execute(ControlledReplicate, q, ok[:1], Config{Part: part}); err == nil {
		t.Error("slot/relation count mismatch must fail")
	}
	bad := []Relation{
		{Name: "R1", Items: []Item{{ID: 0, R: geom.Rect{L: -1}}}},
		NewRelation("R2", nil),
	}
	if _, err := Execute(ControlledReplicate, q, bad, Config{Part: part}); err == nil {
		t.Error("invalid rectangle must fail")
	}
	disconnected := query.New("A", "B")
	if _, err := Execute(ControlledReplicate, disconnected, ok, Config{Part: part}); err == nil {
		t.Error("disconnected query must fail")
	}
	if _, err := Execute(Method(99), q, ok, Config{Part: part}); err == nil {
		t.Error("unknown method must fail")
	}
}

func TestDefaultPartitioning(t *testing.T) {
	rels := []Relation{NewRelation("R", []geom.Rect{{X: 0, Y: 100, L: 50, B: 50}, {X: 500, Y: 900, L: 10, B: 10}})}
	p, err := DefaultPartitioning(rels, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCells() != 64 {
		t.Errorf("default cells = %d, want 64", p.NumCells())
	}
	if _, err := DefaultPartitioning(rels, 10); err == nil {
		t.Error("non-square reducer count must fail")
	}
	if p, err = DefaultPartitioning(nil, 4); err != nil || p.NumCells() != 4 {
		t.Errorf("empty data partitioning: %v, %v", p, err)
	}
}

func TestMethodNames(t *testing.T) {
	for _, m := range Methods() {
		parsed, err := ParseMethod(m.String())
		if err != nil || parsed != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), parsed, err)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Error("unknown method name must fail")
	}
	if Method(99).String() == "" {
		t.Error("unknown method String must not be empty")
	}
}

func TestTupleKey(t *testing.T) {
	a := Tuple{IDs: []int32{1, 2, 3}}
	b := Tuple{IDs: []int32{1, 2, 3}}
	c := Tuple{IDs: []int32{3, 2, 1}}
	if a.Key() != b.Key() {
		t.Error("equal tuples must share a key")
	}
	if a.Key() == c.Key() {
		t.Error("different tuples must differ")
	}
	if a.String() != "[1 2 3]" {
		t.Errorf("String = %q", a.String())
	}
}

// TestRecordRoundTrip decodes a 2-member partial, in the layout the
// cascade checkpoints when both rectangles are read later, and in the
// one where the first is not. (Item records are dfs.MBB records, whose
// codec internal/dfs tests.)
func TestRecordRoundTrip(t *testing.T) {
	rects := []geom.Rect{{X: 1, Y: 2, L: 3, B: 4}, {X: 5, Y: 6, L: 7, B: 8}}
	for _, kept := range [][]bool{{true, true}, {false, true}} {
		l := newPartialLayout(kept)
		rec := make([]byte, l.stride)
		binary.LittleEndian.PutUint16(rec, 2)
		putPartialMember(l, rec, 0, 7, rects[0])
		putPartialMember(l, rec, 1, 9, rects[1])
		st := newPartialStore(l, sharedPool)
		ref, _, err := st.decode(rec)
		if err != nil {
			t.Fatal(err)
		}
		got := st.rec(ref)
		if !bytes.Equal(got, rec) || partialID(l, got, 0) != 7 || partialID(l, got, 1) != 9 ||
			kept[0] && partialRect(l, got, 0) != rects[0] || partialRect(l, got, 1) != rects[1] {
			t.Errorf("%v: partial round trip = %v", kept, got)
		}
		if _, _, err := st.decode([]byte{9}); err == nil {
			t.Errorf("%v: short partial record must fail", kept)
		}
		if _, _, err := st.decode([]byte{2, 0, 1}); err == nil {
			t.Errorf("%v: truncated partial record must fail", kept)
		}
		if _, _, err := newPartialStore(newPartialLayout(append(kept, true)), sharedPool).decode(rec); err == nil {
			t.Errorf("%v: a 2-member record must not decode into a 3-member store", kept)
		}
	}
	if _, _, err := newPartialStore(newPartialLayout([]bool{false, true}), sharedPool).decode(fuzzPartial(2)); err == nil {
		t.Error("a record keeping both rectangles must not decode into a store that keeps one")
	}
}

func TestMaxDiagonal(t *testing.T) {
	rel := NewRelation("R", []geom.Rect{{L: 3, B: 4}, {L: 6, B: 8}})
	if got := rel.MaxDiagonal(); got != 10 {
		t.Errorf("MaxDiagonal = %v, want 10", got)
	}
	if got := NewRelation("E", nil).MaxDiagonal(); got != 0 {
		t.Errorf("empty MaxDiagonal = %v", got)
	}
}

// TestSharedFSReuse: binding different data under a relation name a
// reused DFS already holds must fail loudly instead of joining stale
// rectangles. (FuzzJoin's joinReuseFS runs reuse one FS with the same
// data.)
func TestSharedFSReuse(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 2))
	part := testGrid(t, 2, 400)
	q := query.New("R1", "R2").Overlap(0, 1)
	fs := dfs.New(0)
	if _, err := Execute(ControlledReplicate, q, randomRelations(rng, 2, 50, 400, 40), Config{Part: part, FS: fs}); err != nil {
		t.Fatal(err)
	}
	other := randomRelations(rng, 2, 60, 400, 40)
	if _, err := Execute(ControlledReplicate, q, other, Config{Part: part, FS: fs}); err == nil {
		t.Error("stale staged relation must be rejected")
	}
}

// TestExecuteDeterministicTupleOrder: identical runs produce identical
// tuple slices (not just sets), because the engine is deterministic end
// to end.
func TestExecuteDeterministicTupleOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 3))
	part := testGrid(t, 4, 800)
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 40)
	rels := randomRelations(rng, 3, 120, 800, 50)
	for _, method := range Methods() {
		first, err := Execute(method, q, rels, Config{Part: part, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			again, err := Execute(method, q, rels, Config{Part: part, Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again.Tuples, first.Tuples) {
				t.Fatalf("%v: tuple order differs between runs", method)
			}
		}
	}
}

// markedByRelationPass counts C-Rep's marked rows the way its join round
// once did, in a pass of its own: every slot's staged relation read
// whole, a row marked iff the mark checkpoint holds it — slot, ID and
// rectangle. The round now takes the checkpoint's length instead.
func markedByRelationPass(t *testing.T, fs *dfs.FS, m Method, rels []Relation) int64 {
	t.Helper()
	chk, err := fs.Open("chk/" + m.String() + "/000-mark")
	if err != nil {
		t.Fatal(err)
	}
	marks := map[tagged]bool{}
	if err := chk.MBBs(0, chk.Len(), func(r dfs.MBB) error {
		r.Marked = false
		marks[mbbItem(r)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var n int64
	for s, rel := range rels {
		v, err := fs.Open(inputFile(rel.Name))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.MBBs(0, v.Len(), func(r dfs.MBB) error {
			it := mbbItem(r)
			it.Slot = int8(s)
			if marks[it] {
				n++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestCRepMarkedCountIsCheckpointLength holds RectanglesReplicated, the
// mark checkpoint's record count, to a pass over the relations, on rows
// repeated verbatim (ID included) and a self-join, where a count by ID
// alone would go wrong.
func TestCRepMarkedCountIsCheckpointLength(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 2))
	rels := randomRelations(rng, 2, 120, 100, 30)
	for i := 0; i < 120; i += 4 {
		rels[0].Items = append(rels[0].Items, rels[0].Items[i])
	}
	q := query.New("a", "b", "c").Overlap(0, 1).Overlap(1, 2)
	bound := []Relation{rels[0], rels[0], rels[1]}
	for _, m := range []Method{ControlledReplicate, ControlledReplicateLimit} {
		fs := dfs.New(0)
		res, err := Execute(m, q, bound, Config{Reducers: 16, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		want := markedByRelationPass(t, fs, m, bound)
		if got := res.Stats.RectanglesReplicated; got != want || got == 0 {
			t.Errorf("%v: RectanglesReplicated %d, a pass over the relations marks %d", m, got, want)
		}
	}
}
