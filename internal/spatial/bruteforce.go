package spatial

import "time"

// bruteForce evaluates the query on a single machine with the same
// backtracking matcher the reducers use, but over the entire datasets.
// It is the ground truth the distributed methods are tested against,
// and doubles as a centralised baseline for small inputs.
func bruteForce(pl *plan, rels []Relation, countOnly bool) (*Result, error) {
	start := time.Now()
	data := newCellData(pl.m, nil)
	for s, rel := range rels {
		for _, it := range rel.Items {
			data.ids[s] = append(data.ids[s], it.ID)
			data.rects[s] = append(data.rects[s], it.R)
		}
	}
	var tuples []Tuple
	var slab tupleSlab
	var count int64
	pl.match(data, func(assign []int) {
		count++
		if !countOnly {
			tuples = append(tuples, slab.tupleOf(data, assign))
		}
	})
	return &Result{
		Tuples: tuples,
		Stats: Stats{
			Method:       BruteForce,
			OutputTuples: count,
			Wall:         time.Since(start),
		},
	}, nil
}
