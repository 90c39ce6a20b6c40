package spatial

import (
	"mwsjoin/internal/grid"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/query"
)

// RaceEnabled lets the external test package skip allocation ceilings
// under the race detector, as the in-package ones do.
const RaceEnabled = raceEnabled

// PlanCost lets the external test package price a Predict result the
// way the planner does.
var PlanCost = planCost

// FreshSharedPool lets the external test package measure allocation on
// a process pool no earlier test has filled.
var FreshSharedPool = freshSharedPool

// CascadeShape lets the external test package price a cascade's records
// and pairs under the plan and grid Execute builds from q, rels and cfg:
// recordBytes[p] is the record length of its p-member partials (1 ≤ p ≤
// m), and itemPairs[p] the pairs round p's new slot's items make, one
// per cell each is split onto.
func CascadeShape(q *query.Query, rels []Relation, cfg Config) (recordBytes []int, itemPairs []int64, err error) {
	est, err := newEstimator(q, rels, cfg)
	if err != nil {
		return nil, nil, err
	}
	pl := est.plan(cfg.OptimizeOrder)
	g, err := est.configuredGrid(cfg)
	if err != nil {
		return nil, nil, err
	}
	recordBytes, itemPairs = make([]int, pl.m+1), make([]int64, pl.m)
	for p := 1; p <= pl.m; p++ {
		recordBytes[p] = pl.layout(p).stride
	}
	for p := 1; p < pl.m; p++ {
		for _, it := range rels[pl.order[p]].Items {
			g.part.ForEachSplit(it.R, func(grid.CellID) { itemPairs[p]++ })
		}
	}
	return recordBytes, itemPairs, nil
}

// GridCols is the number of columns of the grid Execute builds from q,
// rels and cfg.
func GridCols(q *query.Query, rels []Relation, cfg Config) (int, error) {
	est, err := newEstimator(q, rels, cfg)
	if err != nil {
		return 0, err
	}
	g, err := est.configuredGrid(cfg)
	if err != nil {
		return 0, err
	}
	return g.part.Cols(), nil
}

// DistExchangers lets the external test package run w SPMD workers in
// one process: the exchangers of one in-memory fabric, by worker.
func DistExchangers(w int) []mapreduce.Exchanger {
	h := newDistHub(w)
	ex := make([]mapreduce.Exchanger, w)
	for self := range ex {
		ex[self] = h.exchanger(self)
	}
	return ex
}
