package spatial

// The cost-based query planner (DESIGN.md §4h): given a parsed query
// and its bound relations, price every map-reduce method with the
// EXPLAIN predictor on the one reducer grid the caller's Config
// resolves to, and return the argmin as a Plan that ExecutePlan runs
// exactly as priced. The method is the planner's only axis: it is the
// replication-rate trade-off the predicted pair counts capture, while
// grid scheme, grid resolution and cascade join order were measured to
// be decided inside the model's own error (EXPERIMENTS.md, "Axis
// audit — executed"), so the grid is the caller's and the join
// order is the cost-based one the paper's footnote 1 assumes. Every
// method yields the same tuple set, so planning is purely a cost
// decision: a wrong pick can only waste time, never change the answer.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"

	"mwsjoin/internal/grid"
	"mwsjoin/internal/query"
)

// Engine-fitted cost-model constants (see DESIGN.md §4h). The planner's
// cost unit is the microsecond-equivalent of this engine's in-process
// execution; only the ranking matters, so the absolute scale is a
// convenience for reading EXPLAIN PLAN output. The weights were fitted
// against measured wall times of the EXPERIMENTS.md workload matrix
// (uniform + Zipf-clustered, unit 20,000, seed 2013). They are the
// model's only correction: Predict's counts are used as estimated.
const (
	// planSetupCost is the fixed per-round cost: job scheduling, input
	// staging and checkpointing overhead of one map-reduce job.
	planSetupCost = 20_000
	// planSweepWeight scales the superlinear per-cell term
	// RoundPairs·log2(1+RoundPairs/Cells): reducers index and sweep
	// their cell's records, so concentrating a round's pairs on few
	// cells costs more than spreading them.
	planSweepWeight = 0.05
	// planTupleWeight prices emitting one output tuple through a
	// reducer-local matcher; tuple counts are identical across methods,
	// so this term only matters through the per-method CPU weights.
	planTupleWeight = 0.2
	// planCellCost is the per-cell, per-round overhead: each grid cell
	// is a reducer task with its own sort/index setup, and a finer grid
	// also splits more boundary rectangles into extra copies. It is the
	// same for every method on one grid, so it never moves the pick; it
	// stays in the formula so plan costs remain comparable across grids
	// and with the committed BENCH_PR9.json anchor.
	planCellCost = 32
)

// defaultPlanPairWeights is the per-method cost of shuffling and
// reducing one intermediate pair, relative to the cascade sweep's.
// The replicate-family methods pay more per pair in this engine: their
// join round runs the multiway backtracking matcher over every
// replicated copy, where cascade's reducers run cheap pairwise sweeps.
var defaultPlanPairWeights = map[Method]float64{
	Cascade:                  1.0,
	AllReplicate:             1.6,
	ControlledReplicate:      1.6,
	ControlledReplicateLimit: 1.4,
}

// defaultPlanTupleWeights is the per-method multiplier on the output
// term: enumerating one result tuple via the multiway matcher's
// backtracking costs more than via the cascade's sorted sweeps.
var defaultPlanTupleWeights = map[Method]float64{
	Cascade:                  1.0,
	AllReplicate:             2.0,
	ControlledReplicate:      2.0,
	ControlledReplicateLimit: 1.6,
}

// PlannerOptions bounds the planner's search space. The zero value
// ranks every map-reduce method.
type PlannerOptions struct {
	// Methods are the candidate map-reduce methods; empty means every
	// method but BruteForce (which runs no map-reduce job and predicts
	// zero communication, so it would win any cost comparison vacuously).
	Methods []Method
}

func (o PlannerOptions) methods() []Method {
	if len(o.Methods) > 0 {
		return o.Methods
	}
	return []Method{Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit}
}

// PlanCandidate is one priced method.
type PlanCandidate struct {
	Method Method
	// Cells is the cell count of the plan's grid.
	Cells int
	// Prediction is the EXPLAIN estimate the candidate was priced from.
	Prediction *Prediction
	// Cost is the candidate's scalar cost (microsecond-equivalents,
	// see DESIGN.md §4h); always finite and non-negative.
	Cost float64
}

// Plan is the planner's pick: the winning candidate plus the concrete
// partitioning it was priced against, ready for ExecutePlan.
type Plan struct {
	PlanCandidate
	// Part is the reducer grid every candidate was priced on — the one
	// Execute and Predict resolve from the same Config; ExecutePlan runs
	// on it, so admission control and execution see the same plan.
	Part *grid.Partitioning
	// Alternatives lists every candidate in ascending cost order;
	// Alternatives[0] is the chosen plan itself.
	Alternatives []PlanCandidate
}

// planCost reduces a prediction to the planner's scalar cost:
//
//	Σ over rounds r of
//	    SetupCost + CellCost·Cells
//	  + pairWeight(m)·RP[r]·(1 + SweepWeight·log2(1 + RP[r]/Cells))
//	+ TupleWeight·tupleWeight(m)·Tuples
//
// The per-cell log term penalises concentrating a round's pairs on few
// reducers, and the CellCost term charges each cell's reducer-task
// setup and boundary-split copies — without it the log term would
// reward ever-finer grids that measured walls do not. The per-method
// weights encode the engine-measured CPU cost of each method's reducer
// work. All inputs are sanitized finite, and clampCost bounds the sum,
// so the result is always finite — the total order the argmin needs.
func planCost(p *Prediction) float64 {
	pw := defaultPlanPairWeights[p.Method]
	if pw == 0 {
		pw = 1
	}
	tw := defaultPlanTupleWeights[p.Method]
	if tw == 0 {
		tw = 1
	}
	cells := float64(p.Cells)
	if cells < 1 {
		cells = 1
	}
	cost := 0.0
	for _, rp := range p.RoundPairs {
		cost += planSetupCost + planCellCost*cells +
			pw*rp*(1+planSweepWeight*math.Log2(1+rp/cells))
	}
	cost += planTupleWeight * tw * p.Tuples
	return clampCost(cost)
}

// lessCandidate is the deterministic total order the planner sorts by:
// ascending cost, ties broken by method — so identical inputs always
// produce the identical plan.
func lessCandidate(a, b PlanCandidate) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	return a.Method < b.Method
}

// PlanQuery prices one candidate per method and returns the cheapest.
// Each candidate is the Prediction that Predict returns for the method
// under cfg with OptimizeOrder set — the same grid (cfg.Part, else the
// relation set's for cfg.Scheme, Reducers and SplitThreshold; default
// uniform/64), the cost-based join order — so the
// pick is the argmin of planCost over the methods' Predict results, and
// Plan.Part is the grid Execute resolves from the same cfg.
//
// All candidates are priced from one estimator (see Predict), so the
// relations are sampled and joined once per plan, not once per method.
//
// Planning is deterministic: the predictor draws fixed-seed samples and
// ties break by lessCandidate — so the same query, relations and
// options always yield the same plan.
func PlanQuery(q *query.Query, rels []Relation, cfg Config, opts PlannerOptions) (*Plan, error) {
	methods := opts.methods()
	for _, m := range methods {
		if m == BruteForce {
			return nil, fmt.Errorf("spatial: planner cannot cost %v: it runs no map-reduce job and would win every comparison vacuously", BruteForce)
		}
	}
	est, err := newEstimator(q, rels, cfg)
	if err != nil {
		return nil, err
	}
	g, err := est.configuredGrid(cfg)
	if err != nil {
		return nil, err
	}
	cands := make([]PlanCandidate, 0, len(methods))
	for _, m := range methods {
		pred, err := est.predict(m, true, g)
		if err != nil {
			return nil, err
		}
		cands = append(cands, PlanCandidate{
			Method:     m,
			Cells:      g.part.NumCells(),
			Prediction: pred,
			Cost:       planCost(pred),
		})
	}
	sort.SliceStable(cands, func(i, j int) bool { return lessCandidate(cands[i], cands[j]) })
	return &Plan{PlanCandidate: cands[0], Part: g.part, Alternatives: cands}, nil
}

// ExecutePlan runs a plan exactly as the planner priced it: the chosen
// method on the plan's grid in the cost-based join order. cfg supplies
// everything else (parallelism, fault injection, tracing, …); its Part
// and OptimizeOrder fields are overwritten from the plan.
func ExecutePlan(pl *Plan, q *query.Query, rels []Relation, cfg Config) (*Result, error) {
	cfg.Part = pl.Part
	cfg.OptimizeOrder = true
	return Execute(pl.Method, q, rels, cfg)
}

// WriteExplain renders the EXPLAIN PLAN table: the chosen method first,
// then every rejected one in ascending cost order, with the per-phase
// estimates each was priced from.
func (p *Plan) WriteExplain(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "pick\tmethod\trounds\tpairs\tcopies\ttuples\tcost")
	for i, c := range p.Alternatives {
		pick := ""
		if i == 0 {
			pick = "*"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.0f\t%.0f\t%.0f\t%.0f\n",
			pick, c.Method, c.Prediction.Rounds, c.Prediction.Pairs,
			c.Prediction.Copies, c.Prediction.Tuples, c.Cost)
	}
	return tw.Flush()
}
