package spatial

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/query"
)

// summaryRelations are large enough that every statistic is sampled.
func summaryRelations(seed uint64) []Relation {
	return randomRelations(rand.New(rand.NewPCG(seed, 18)), 3, 3000, 4000, 80)
}

func hybridQuery() *query.Query { return query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 9) }

// allReplicated is the one prediction field that is a plain statistic:
// All-Replicate ships every rectangle, so it is the relations' total
// count — and moves when, and only when, a summary is rebuilt.
func allReplicated(t *testing.T, rels []Relation) float64 {
	t.Helper()
	p, err := Predict(AllReplicate, hybridQuery(), rels, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p.Replicated
}

// TestSummaryFollowsItems is the staleness guard: a relation that has
// been planned on and then has its Items re-sliced, replaced, appended
// to or rewritten in place is summarised afresh — never priced,
// partitioned or validated from the statistics of its old contents.
func TestSummaryFollowsItems(t *testing.T) {
	rels := summaryRelations(1)
	if got := allReplicated(t, rels); got != 9000 {
		t.Fatalf("replicated = %v, want 9000", got)
	}
	before := rels[1].stats()
	if rels[1].stats() != before {
		t.Fatal("an unchanged relation was summarised twice")
	}

	rels[1].Items = rels[1].Items[:1000]
	if got := allReplicated(t, rels); got != 7000 {
		t.Errorf("after re-slicing to 1000 items: replicated = %v, want 7000", got)
	}
	rels[1].Items = append(rels[1].Items, Item{ID: 1000, R: geom.Rect{X: 1, Y: 2, L: 3, B: 1}})
	if got := allReplicated(t, rels); got != 7001 {
		t.Errorf("after appending one item: replicated = %v, want 7001", got)
	}
	rels[1].Items = summaryRelations(2)[1].Items[:500]
	if got := allReplicated(t, rels); got != 6500 {
		t.Errorf("after replacing Items: replicated = %v, want 6500", got)
	}

	// Rewritten in place: same array, same length, other rectangles.
	part, err := BuildPartitioning(PartitionUniform, rels, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rels[2].Items {
		rels[2].Items[i].R.X += 1e6
	}
	moved, err := BuildPartitioning(PartitionUniform, rels, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if moved == part || moved.Bounds().MaxX() < 1e6 {
		t.Errorf("after shifting a relation in place the grid still spans %v", moved.Bounds())
	}
	if d := rels[2].MaxDiagonal(); d != rels[2].stats().maxDiag || d <= 0 {
		t.Errorf("MaxDiagonal = %v, the summary holds %v", d, rels[2].stats().maxDiag)
	}

	// A copy of the value shares the summary, and narrowing the copy
	// does not leave the original with the copy's statistics.
	narrow := rels[0]
	narrow.Items = narrow.Items[:10]
	if n := narrow.stats().n; n != 10 {
		t.Errorf("narrowed copy summarised as %d items", n)
	}
	if n := rels[0].stats().n; n != 3000 {
		t.Errorf("original summarised as %d items after its copy was narrowed", n)
	}

	// A rectangle made invalid in place, at a probed position, is
	// rejected from then on, on every call.
	rels[0].Items[0].R.L = -1
	for call := 0; call < 2; call++ {
		if _, err := Predict(Cascade, hybridQuery(), rels, Config{}); err == nil {
			t.Errorf("call %d: a negative length written in place was accepted", call)
		}
	}
}

// TestStagedInSweepOrder: Execute stages every relation in sweep order
// — ascending (MinX, position in Items), ties and signed zeros included
// — with each record as Items holds it, ID and all, and leaves Items as
// it was. A cell's items arrive in job-input order, so every slot of
// every cell then arrives in sweep order, and newCellData keeps the
// arrival order as it is.
func TestStagedInSweepOrder(t *testing.T) {
	for _, w := range orderWorkloads() {
		rels := w.rels
		before := make([][]Item, len(rels))
		for s, rel := range rels {
			before[s] = slices.Clone(rel.Items)
		}
		exec := &executor{rels: rels, fs: dfs.New(0)}
		if _, err := Execute(AllReplicate, w.q, rels, Config{FS: exec.fs, Reducers: 16, NumMappers: 3}); err != nil {
			t.Fatal(err)
		}
		for s, rel := range rels {
			if !slices.Equal(rel.Items, before[s]) {
				t.Fatalf("%s: staging rewrote %s's Items", w.name, rel.Name)
			}
			// NewRelation numbers the items by position, so the id is the
			// position the tie-break needs.
			want := slices.Clone(rel.Items)
			slices.SortStableFunc(want, func(a, b Item) int { return cmp.Compare(a.R.MinX(), b.R.MinX()) })
			var got []Item
			v, err := exec.fs.Open(inputFile(rel.Name))
			if err == nil {
				err = v.MBBs(0, v.Len(), func(m dfs.MBB) error {
					got = append(got, Item{ID: m.ID, R: mbbRect(m)})
					return nil
				})
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %s is not staged in sweep order", w.name, rel.Name)
			}
		}

		var input []tagged
		in, read, err := exec.openRelations(nil)
		if err == nil {
			err = read(0, in.n, func(it tagged) error {
				input = append(input, it)
				return nil
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		part, err := BuildPartitioning(PartitionUniform, rels, 16, 0)
		if err != nil {
			t.Fatal(err)
		}
		cells := make([][]tagged, part.NumCells())
		for _, it := range input {
			part.ForEachSplit(it.Rect, func(c grid.CellID) { cells[c] = append(cells[c], it) })
		}
		for c, items := range cells {
			cd := newCellData(len(rels), items)
			for s := range rels {
				var arrived []int32
				for _, it := range items {
					if int(it.Slot) == s {
						arrived = append(arrived, it.ID)
					}
				}
				if !slices.Equal(cd.ids[s], arrived) {
					t.Errorf("%s cell %d slot %d: newCellData reordered a side that arrived from the staged files", w.name, c, s)
				}
			}
		}
	}
}

// TestSummaryBuiltOnce: concurrent first users of fresh relations wait
// for one walk per relation, draw each sample once, and agree.
func TestSummaryBuiltOnce(t *testing.T) {
	rels := summaryRelations(3)
	built := statsIDs.Load()
	const n = 4
	plans := make([]string, n)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan, err := PlanQuery(hybridQuery(), rels, Config{}, PlannerOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = planFingerprint(plan)
		}()
	}
	wg.Wait()
	if got := statsIDs.Load() - built; got != uint64(len(rels)) {
		t.Errorf("%d summaries built for %d relations", got, len(rels))
	}
	for i, p := range plans {
		if p != plans[0] {
			t.Errorf("plan %d differs from plan 0:\n %s\n %s", i, p, plans[0])
		}
	}
	again, err := PlanQuery(hybridQuery(), rels, Config{}, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if planFingerprint(again) != plans[0] {
		t.Error("a warm plan differs from the first plans")
	}
	if got := statsIDs.Load() - built; got != uint64(len(rels)) {
		t.Errorf("a warm plan summarised again: %d summaries for %d relations", got, len(rels))
	}
}

// TestDigestHashesPackedItems: a relation's digest is the sha-256 of its
// items packed, and the packing is id then x, y, l, b, little-endian,
// which UnpackItems reads back bit for bit, over several hash blocks and
// none.
func TestDigestHashesPackedItems(t *testing.T) {
	for _, n := range []int{0, 1, 129, 3000} {
		rel := Relation{Name: "R", Items: summaryRelations(5)[0].Items[:n], sum: &relSummary{}}
		packed := AppendPacked(nil, rel.Items)
		if rel.Digest() != sha256.Sum256(packed) {
			t.Errorf("%d items: the digest is not the hash of the packed items", n)
		}
		for i, it := range rel.Items {
			rec := packed[i*PackedItemBytes:]
			if int32(binary.LittleEndian.Uint32(rec)) != it.ID || math.Float64frombits(binary.LittleEndian.Uint64(rec[4:])) != it.R.X ||
				math.Float64frombits(binary.LittleEndian.Uint64(rec[28:])) != it.R.B {
				t.Fatalf("%d items: item %d packs as % x", n, i, rec[:PackedItemBytes])
			}
		}
		back, err := UnpackItems(packed)
		if err != nil || len(back) != n || (n > 0 && !slices.EqualFunc(back, rel.Items, sameItem)) {
			t.Errorf("%d items did not round-trip (err %v)", n, err)
		}
	}
	if _, err := UnpackItems(make([]byte, PackedItemBytes+1)); err == nil {
		t.Error("a ragged packing unpacked without error")
	}
}

// TestGridMemo: a relation set's grids are built once per (scheme, k,
// threshold), the memo never outgrows its fixed size, and another
// relation in any slot is another key.
func TestGridMemo(t *testing.T) {
	rels := summaryRelations(4)
	first, err := BuildPartitioning(PartitionAdaptive, rels, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := AdaptivePartitioning(rels, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("the same relations, scheme and k built a second grid")
	}
	if byDefault, _ := BuildPartitioning(PartitionAdaptive, rels, 0, -1); byDefault != first {
		t.Error("k ≤ 0 and a threshold ≤ 0 did not resolve to the defaults' grid")
	}
	for k := 1; k <= 3*gridMemoSize; k++ {
		if _, err := BuildPartitioning(PartitionAdaptive, rels, k, 0); err != nil {
			t.Fatal(err)
		}
	}
	lead := rels[0].stats()
	lead.mu.Lock()
	kept := len(lead.grids.entries)
	lead.mu.Unlock()
	if kept != gridMemoSize {
		t.Errorf("memo holds %d grids, want its fixed size %d", kept, gridMemoSize)
	}
	if recent, _ := BuildPartitioning(PartitionAdaptive, rels, 3*gridMemoSize, 0); recent == nil || recent.NumCells() > 3*gridMemoSize {
		t.Errorf("grid for k=%d: %v", 3*gridMemoSize, recent)
	}

	// Replacing one relation of the set — same name, other contents —
	// changes the key: no grid of the old set answers for the new one.
	other := []Relation{rels[0], NewRelation("R2", []geom.Rect{{X: -5000, Y: 9000, L: 10, B: 10}}), rels[2]}
	replaced, err := BuildPartitioning(PartitionAdaptive, other, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if replaced == first || replaced.Bounds().MinX() > -5000 {
		t.Errorf("the grid of a set with a replaced relation spans %v", replaced.Bounds())
	}
}
