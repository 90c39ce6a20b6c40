package spatial

// The cost-based query planner (ROADMAP item 1, DESIGN.md §4h): given
// a parsed query and its bound relations, enumerate candidate plans —
// every map-reduce method, cascade join orderings, uniform vs adaptive
// partitioning at several grid resolutions — price each with the
// calibrated EXPLAIN predictor, and return the argmin as
// a Plan that ExecutePlan runs exactly as priced. Every method yields
// the same tuple set, so planning is purely a cost decision: a wrong
// pick can only waste time, never change the answer.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"

	"mwsjoin/internal/grid"
	"mwsjoin/internal/query"
)

// Default engine-fitted cost-model constants (see DESIGN.md §4h). The
// planner's cost unit is the microsecond-equivalent of this engine's
// in-process execution; only the ranking matters, so the absolute
// scale is a convenience for reading EXPLAIN PLAN output. The weights
// were fitted against measured wall times of the EXPERIMENTS.md
// workload matrix (uniform + Zipf-clustered, unit 20,000, seed 2013)
// and are corrected further at runtime by the calibration ledger's
// learned per-method factors.
const (
	// DefaultPlanSetupCost is the fixed per-round cost: job scheduling,
	// input staging and checkpointing overhead of one map-reduce job.
	DefaultPlanSetupCost = 20_000
	// DefaultPlanSweepWeight scales the superlinear per-cell term
	// RoundPairs·log2(1+RoundPairs/Cells): reducers index and sweep
	// their cell's records, so concentrating a round's pairs on few
	// cells costs more than spreading them. This is the term that gives
	// grid resolution a genuine trade-off (a finer grid splits more
	// rectangles but loads each reducer less).
	DefaultPlanSweepWeight = 0.05
	// DefaultPlanTupleWeight prices emitting one output tuple through a
	// reducer-local matcher; tuple counts are identical across methods,
	// so this term only matters through the per-method CPU weights.
	DefaultPlanTupleWeight = 0.2
	// DefaultPlanCellCost is the per-cell, per-round overhead: each grid
	// cell is a reducer task with its own sort/index setup, and a finer
	// grid also splits more boundary rectangles into extra copies. This
	// is the counterweight to the sweep term — without it the log2 term
	// rewards ever-finer grids, while measured walls peak at moderate
	// resolutions. The measured window on the BENCH_PR9.json matrix is
	// roughly (21, 74) per cell-round; 32 sits in it with margin.
	DefaultPlanCellCost = 32
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

// PlannerOptions bounds the planner's search space and tunes its cost
// scalar. The zero value enumerates the full default space.
type PlannerOptions struct {
	// Methods are the candidate map-reduce methods; empty means every
	// method but BruteForce (which runs no map-reduce job and predicts
	// zero communication, so it would win any cost comparison vacuously).
	Methods []Method
	// Schemes are the candidate partitioning schemes; empty means
	// uniform and adaptive.
	Schemes []PartitionScheme
	// Reducers are the candidate grid resolutions (cells per grid);
	// empty means {16, 64, 256}. Every value must be a perfect square
	// when the uniform scheme is enumerated.
	Reducers []int
	// SetupCost, SweepWeight, TupleWeight and CellCost override the
	// cost-model constants above; ≤ 0 means the default.
	SetupCost   float64
	SweepWeight float64
	TupleWeight float64
	CellCost    float64
}

func (o PlannerOptions) methods() []Method {
	if len(o.Methods) > 0 {
		return o.Methods
	}
	return []Method{Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit}
}

func (o PlannerOptions) schemes() []PartitionScheme {
	if len(o.Schemes) > 0 {
		return o.Schemes
	}
	return []PartitionScheme{PartitionUniform, PartitionAdaptive}
}

func (o PlannerOptions) reducers() []int {
	if len(o.Reducers) > 0 {
		return o.Reducers
	}
	return []int{16, 64, 256}
}

func (o PlannerOptions) setupCost() float64 {
	if o.SetupCost > 0 {
		return o.SetupCost
	}
	return DefaultPlanSetupCost
}

func (o PlannerOptions) sweepWeight() float64 {
	if o.SweepWeight > 0 {
		return o.SweepWeight
	}
	return DefaultPlanSweepWeight
}

func (o PlannerOptions) tupleWeight() float64 {
	if o.TupleWeight > 0 {
		return o.TupleWeight
	}
	return DefaultPlanTupleWeight
}

func (o PlannerOptions) cellCost() float64 {
	if o.CellCost > 0 {
		return o.CellCost
	}
	return DefaultPlanCellCost
}

// PlanCandidate is one priced point of the planner's search space.
type PlanCandidate struct {
	Method Method
	Scheme PartitionScheme
	// Reducers is the requested grid resolution; Cells the cell count
	// of the grid actually built (the adaptive scheme may merge below
	// its target).
	Reducers int
	Cells    int
	// OptimizeOrder records whether the candidate runs the cost-based
	// cascade join order instead of the connectivity default.
	OptimizeOrder bool
	// Prediction is the calibrated EXPLAIN estimate the candidate was
	// priced from; Raw is its uncalibrated twin — what the calibration
	// ledger records, so learned factors never compound.
	Prediction *Prediction
	Raw        *Prediction
	// Cost is the candidate's scalar cost (microsecond-equivalents,
	// see DESIGN.md §4h); always finite and non-negative.
	Cost float64
}

// label renders the candidate's identity for explain output and errors.
func (c PlanCandidate) label() string {
	return fmt.Sprintf("%s/%s/%d", c.Method, c.Scheme, c.Reducers)
}

// Plan is the planner's pick: the winning candidate plus the concrete
// partitioning it was priced against, ready for ExecutePlan.
type Plan struct {
	PlanCandidate
	// Part is the exact reducer grid the winning candidate was priced
	// with; ExecutePlan runs on it, so admission control and execution
	// see the same plan.
	Part *grid.Partitioning
	// Alternatives lists every enumerated candidate in ascending cost
	// order; Alternatives[0] is the chosen plan itself.
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
func planCost(p *Prediction, opts PlannerOptions) float64 {
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
		cost += opts.setupCost() + opts.cellCost()*cells +
			pw*rp*(1+opts.sweepWeight()*math.Log2(1+rp/cells))
	}
	cost += opts.tupleWeight() * tw * p.Tuples
	return clampCost(cost)
}

// lessCandidate is the deterministic total order the planner sorts by:
// ascending cost, ties broken by method, scheme, grid resolution, and
// default join order before the optimized one — so identical inputs
// always produce the identical plan.
func lessCandidate(a, b PlanCandidate) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	if a.Method != b.Method {
		return a.Method < b.Method
	}
	if a.Scheme != b.Scheme {
		return a.Scheme < b.Scheme
	}
	if a.Reducers != b.Reducers {
		return a.Reducers < b.Reducers
	}
	if a.OptimizeOrder != b.OptimizeOrder {
		return !a.OptimizeOrder
	}
	return false
}

// PlanQuery enumerates the candidate space and returns the cheapest
// plan. cfg supplies the execution context the candidates inherit
// (calibration factors, LimitMetric, self-pair policy, …); fields the
// planner itself enumerates (Part, Scheme, Reducers, OptimizeOrder) are
// overridden per candidate, except that a caller-fixed cfg.Part pins
// the grid axis: then only the method and order axes are explored,
// priced against exactly that grid. The mark round's combiner is not an
// axis: it cannot change a prediction, so cfg.NoCombiner is the
// caller's to set on the run.
//
// Every candidate is priced from one estimator (see Predict), so the
// relations are sampled and joined once per plan, not once per
// candidate, and the candidate grids — with the fan-out means no query
// can change — are the relation set's, shared with every earlier and
// later plan over the same relations.
//
// The search is deterministic: the predictor draws fixed-seed samples,
// the enumeration order is fixed, and ties break by lessCandidate — so
// the same query, relations and options always yield the same plan.
func PlanQuery(q *query.Query, rels []Relation, cfg Config, opts PlannerOptions) (*Plan, error) {
	type gridCand struct {
		scheme   PartitionScheme
		reducers int
		g        *gridStats
	}
	for _, m := range opts.methods() {
		if m == BruteForce {
			return nil, fmt.Errorf("spatial: planner cannot cost %v: it runs no map-reduce job and would win every comparison vacuously", BruteForce)
		}
	}
	est, err := newEstimator(q, rels, cfg)
	if err != nil {
		return nil, err
	}
	var grids []gridCand
	if cfg.Part != nil {
		grids = append(grids, gridCand{cfg.Scheme, cfg.Part.NumCells(), &gridStats{part: cfg.Part}})
	} else {
		for _, scheme := range opts.schemes() {
			for _, k := range opts.reducers() {
				g, err := est.set.grid(scheme, k, cfg.SplitThreshold)
				if err != nil {
					return nil, fmt.Errorf("spatial: planner grid candidate %s/%d: %w", scheme, k, err)
				}
				grids = append(grids, gridCand{scheme, k, g})
			}
		}
	}

	var cands []PlanCandidate
	parts := make(map[string]*grid.Partitioning, len(grids))
	for _, m := range opts.methods() {
		// The join order only changes the predicted cost of Cascade's
		// 2-way steps; the other methods' shuffle rounds are
		// order-independent, so their candidates inherit cfg's setting.
		orders := []bool{cfg.OptimizeOrder}
		if m == Cascade {
			orders = []bool{false, true}
		}
		for _, g := range grids {
			for _, order := range orders {
				raw, err := est.predict(m, order, g.g)
				if err != nil {
					return nil, err
				}
				pred := cfg.Calibration.Apply(raw).sanitize()
				c := PlanCandidate{
					Method:        m,
					Scheme:        g.scheme,
					Reducers:      g.reducers,
					Cells:         g.g.part.NumCells(),
					OptimizeOrder: order,
					Prediction:    pred,
					Raw:           raw,
					Cost:          planCost(pred, opts),
				}
				cands = append(cands, c)
				parts[c.label()] = g.g.part
			}
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("spatial: planner has no candidates (empty method or grid space)")
	}
	sort.SliceStable(cands, func(i, j int) bool { return lessCandidate(cands[i], cands[j]) })
	best := cands[0]
	return &Plan{PlanCandidate: best, Part: parts[best.label()], Alternatives: cands}, nil
}

// ExecutePlan runs a plan exactly as the planner priced it: the chosen
// method on the chosen grid and join order. cfg supplies everything
// else (parallelism, fault injection, tracing, …); its
// Part/Scheme/Reducers/OptimizeOrder fields are overwritten from the
// plan.
func ExecutePlan(pl *Plan, q *query.Query, rels []Relation, cfg Config) (*Result, error) {
	cfg.Part = pl.Part
	cfg.Scheme = pl.Scheme
	cfg.Reducers = pl.Reducers
	cfg.OptimizeOrder = pl.OptimizeOrder
	return Execute(pl.Method, q, rels, cfg)
}

// WriteExplain renders the EXPLAIN PLAN table: the chosen plan first,
// then every rejected alternative in ascending cost order, with the
// calibrated per-phase estimates each was priced from.
func (p *Plan) WriteExplain(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "pick\tmethod\tpartition\tcells\torder\trounds\tpairs\tcopies\ttuples\tcost")
	for i, c := range p.Alternatives {
		pick := ""
		if i == 0 {
			pick = "*"
		}
		order := "default"
		if c.OptimizeOrder {
			order = "optimized"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s/%d\t%d\t%s\t%d\t%.0f\t%.0f\t%.0f\t%.0f\n",
			pick, c.Method, c.Scheme, c.Reducers, c.Cells, order,
			c.Prediction.Rounds, c.Prediction.Pairs, c.Prediction.Copies,
			c.Prediction.Tuples, c.Cost)
	}
	return tw.Flush()
}
