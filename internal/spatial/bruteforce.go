package spatial

import "time"

// bruteForce evaluates the query on a single machine with the same
// matcher the reducers use, but over the entire datasets. It is the
// centralised baseline for small inputs and the reference the
// distributed methods are tested against; the kernel-free reference
// the matcher itself is tested against lives in the tests.
func bruteForce(pl *plan, rels []Relation, countOnly bool) (Rows, Stats) {
	start := time.Now()
	n := 0
	for _, rel := range rels {
		n += len(rel.Items)
	}
	items := make([]tagged, 0, n)
	for s, rel := range rels {
		for _, it := range rel.Items {
			items = append(items, tagged{Slot: int8(s), ID: it.ID, Rect: it.R})
		}
	}
	data := newCellData(pl.m, items)
	rows := Rows{Arity: pl.m}
	var count int64
	pl.match(data, func(assign []int) {
		count++
		if !countOnly {
			for s, j := range assign {
				rows.IDs = append(rows.IDs, data.ids[s][j])
			}
		}
	})
	return rows, Stats{
		Method:       BruteForce,
		OutputTuples: count,
		Wall:         time.Since(start),
	}
}
