package spatial

import (
	"fmt"
	"math"

	"mwsjoin/internal/estimate"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/query"
	"mwsjoin/internal/sweep"
)

// maxFiniteCost caps every predicted cost field. The cap is large
// enough that no realistic estimate reaches it, yet small enough that
// summing millions of capped fields (or weighting them in planCost)
// still cannot overflow float64 to +Inf. The planner's argmin requires
// a total order over candidate costs, which NaN and Inf both break.
const maxFiniteCost = 1e30

// clampCost maps any estimate into the finite range [0, maxFiniteCost].
// NaN and negative values collapse to 0: both only arise from degenerate
// inputs (empty samples, zero cardinalities) where "no cost" is the
// honest estimate.
func clampCost(v float64) float64 {
	switch {
	case math.IsNaN(v) || v < 0:
		return 0
	case v > maxFiniteCost:
		return maxFiniteCost
	}
	return v
}

// safeDiv returns a/b clamped to a finite non-negative cost, treating
// an undefined quotient (b == 0 — an empty relation) as 0.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return clampCost(a / b)
}

// sanitize enforces the Prediction invariant: every field is finite and
// non-negative, and Pairs is exactly the sum of RoundPairs. predict
// calls it once on every prediction it returns, so downstream consumers
// (planner argmin, admission control, the -explain table) never see NaN
// or Inf.
func (p *Prediction) sanitize() *Prediction {
	p.Pairs = 0
	for i, n := range p.RoundPairs {
		p.RoundPairs[i] = clampCost(n)
		p.Pairs += p.RoundPairs[i]
	}
	p.Pairs = clampCost(p.Pairs)
	p.Replicated = clampCost(p.Replicated)
	p.Copies = clampCost(p.Copies)
	p.Tuples = clampCost(p.Tuples)
	return p
}

// Prediction is the EXPLAIN-mode cost estimate for one method: the
// paper's §7.8.3 figures of merit predicted from uniform samples and
// the replication cost model, without running the join. Execute with
// the same Config yields the actuals a prediction is validated against
// (the mwsjoin -explain mode prints both with relative errors).
type Prediction struct {
	Method Method
	// Cells is the reducer-cell count of the partitioning the estimate
	// was priced against — the same partitioning Execute resolves from
	// the config (including the adaptive scheme), so admission control
	// prices the plan actually run.
	Cells int
	// Rounds is the number of map-reduce jobs the method will run.
	Rounds int
	// RoundPairs predicts the intermediate key-value pairs shuffled by
	// each job, in execution order; Pairs is their sum — the predicted
	// counterpart of Stats.IntermediatePairs.
	RoundPairs []float64
	Pairs      float64
	// Replicated predicts the rectangles chosen for replication
	// (Stats.RectanglesReplicated).
	Replicated float64
	// Copies predicts the rectangle copies communicated to the join
	// round's reducers (Stats.RectanglesAfterReplication).
	Copies float64
	// Tuples predicts the output cardinality (Stats.OutputTuples).
	Tuples float64
}

// Predict estimates the cost of running the query with the given method
// under the same configuration Execute would use. The estimator reads
// the relations' deterministic fixed-seed samples (see summary.go), so
// predictions are reproducible. BruteForce predicts zero communication:
// it runs no map-reduce job.
//
// Every field of the returned Prediction is finite and non-negative —
// even for empty relations or degenerate geometry — so candidate plans
// always have a total cost order.
//
// Predict is the planner's estimator asked for one method: PlanQuery
// prices every method from one estimator, through the same code.
func Predict(method Method, q *query.Query, rels []Relation, cfg Config) (*Prediction, error) {
	est, err := newEstimator(q, rels, cfg)
	if err != nil {
		return nil, err
	}
	g, err := est.configuredGrid(cfg)
	if err != nil {
		return nil, err
	}
	return est.predict(method, cfg.OptimizeOrder, g)
}

// estimator is the estimate context of one Predict or PlanQuery call:
// the bound relations' summaries plus everything sampled for this query
// — each directed edge's cardinality, each join order's chain, each
// fan-out mean — computed when a method first asks and read by every
// later one, so pricing a method is arithmetic. Means a query's ranges
// cannot change live on the grid instead (gridStats) and outlast the
// call. Not safe for concurrent use.
type estimator struct {
	set    relationSet
	metric grid.Metric

	// base runs the connectivity join order, optimized the cost-based
	// one (built on first use; base itself when there is nothing to
	// reorder).
	base, optimized *plan

	cards  map[cardKey]float64
	chains map[*plan][]float64
	means  map[planMeanKey]float64
	splits map[planMeanKey][]int32 // see splitCounts
	// bounds are C-Rep-L's per-slot replication radii.
	bounds    []float64
	boundsErr error
	pool      *mapreduce.BufferPool // the execution's: a cluster worker's, or sharedPool
}

// newEstimator validates the query/relation binding and the relations'
// rectangles — exactly as Execute does: a single NaN coordinate would
// otherwise poison every sampled sum into NaN.
func newEstimator(q *query.Query, rels []Relation, cfg Config) (*estimator, error) {
	pl, err := newPlan(q, rels, !cfg.AllowSelfPairs)
	if err != nil {
		return nil, err
	}
	set := summaries(rels)
	if err := set.validate(); err != nil {
		return nil, err
	}
	pool := sharedPool
	if cfg.Dist != nil && cfg.Dist.Pool != nil {
		pool = cfg.Dist.Pool
	}
	return &estimator{
		set: set, metric: cfg.LimitMetric, base: pl, pool: pool,
		cards:  map[cardKey]float64{},
		chains: map[*plan][]float64{},
		means:  map[planMeanKey]float64{},
		splits: map[planMeanKey][]int32{},
	}, nil
}

// configuredGrid resolves the grid a Config asks for: the caller's own,
// or the relation set's for the configured scheme.
func (est *estimator) configuredGrid(cfg Config) (*gridStats, error) {
	if cfg.Part != nil {
		return &gridStats{part: cfg.Part}, nil
	}
	return est.set.grid(cfg.Scheme, cfg.Reducers, cfg.SplitThreshold)
}

// plan returns the query plan under the default or the cost-based join
// order.
func (est *estimator) plan(optimize bool) *plan {
	if !optimize {
		return est.base
	}
	if est.optimized == nil {
		est.optimized = est.base.optimizeOrder(est)
	}
	return est.optimized
}

// count is slot s's cardinality.
func (est *estimator) count(s int) float64 { return float64(est.set.stats[s].n) }

// cardKey names a sampled join: the first slot is drawn on stream 1,
// the second on stream 2, so the estimate depends on the direction.
type cardKey struct {
	first, second int
	weight        float64
}

// card estimates the number of (first, second) rectangle pairs within
// the predicate's distance, from the two slots' sorted samples.
func (est *estimator) card(first, second int, pred query.Predicate) float64 {
	k := cardKey{first, second, pred.Weight()}
	if c, ok := est.cards[k]; ok {
		return c
	}
	set := est.set
	s2 := set.sortedSample(second, 2)
	sc := mapreduce.GetScratch[sweep.Strips](est.pool, len(s2))
	defer mapreduce.PutScratch(est.pool, sc)
	c := estimate.SampledCardinality(sc, set.stats[first].n, set.sortedSample(first, 1), set.stats[second].n, s2, k.weight)
	est.cards[k] = c
	return c
}

// meanKind selects a per-rectangle fan-out whose mean over a slot's
// sample the cost model needs.
type meanKind uint8

const (
	// meanSplit: cells the rectangle, enlarged by d, is split over.
	meanSplit meanKind = iota
	// meanFourthQuadrant: cells of its 4th quadrant (replication f1).
	meanFourthQuadrant
	// meanMarked: 1 when the rectangle is predicted marked under d.
	meanMarked
	// meanMarkedF1, meanMarkedF2: copies C-Rep and C-Rep-L ship of it —
	// f1, or f2 within bound, when marked under d; its one projection
	// when not.
	meanMarkedF1
	meanMarkedF2
)

// meanKey names one fan-out mean on a grid.
type meanKey struct {
	slot  int
	kind  meanKind
	d     float64 // enlargement: an edge weight, or the slot's largest
	bound float64 // meanMarkedF2's replication radius
}

type planMeanKey struct {
	g *gridStats
	meanKey
}

// mean returns E[f(r)] for a uniformly drawn rectangle of the slot: the
// mean of the kind's fan-out over the slot's sample. A mean taken with
// no enlargement depends on the relations and the grid alone, so it is
// kept on the grid for every later query over these relations; one that
// a range predicate's d (or C-Rep-L's bound, which sums them) enters is
// this plan's only.
func (est *estimator) mean(g *gridStats, k meanKey) float64 {
	shared := k.d == 0 && k.kind != meanMarkedF2
	if shared {
		g.mu.Lock()
		v, ok := g.means[k]
		g.mu.Unlock()
		if ok {
			return v
		}
	} else if v, ok := est.means[planMeanKey{g, k}]; ok {
		return v
	}
	v := est.sampleMean(g, k)
	if shared {
		g.mu.Lock()
		if g.means == nil {
			g.means = map[meanKey]float64{}
		}
		g.means[k] = v
		g.mu.Unlock()
	} else {
		est.means[planMeanKey{g, k}] = v
	}
	return v
}

// splitCounts returns, per rectangle of the slot's sample, the number
// of cells it is split over once enlarged by d. Every fan-out the cost
// model takes under an enlargement starts from it — the cascade's key
// split is its mean, and a rectangle is predicted marked when the count
// exceeds one — so the four binary searches behind a count run once per
// (grid, slot, d) of a plan.
func (est *estimator) splitCounts(g *gridStats, slot int, d float64) []int32 {
	k := planMeanKey{g, meanKey{slot: slot, d: d}}
	if c, ok := est.splits[k]; ok {
		return c
	}
	sample := est.set.sample(slot, uint64(slot)+3)
	c := make([]int32, len(sample))
	for i, r := range sample {
		if d > 0 {
			r = r.Enlarge(d)
		}
		c[i] = int32(g.part.SplitCount(r))
	}
	est.splits[k] = c
	return c
}

// sampleMean takes the mean a meanKey names over the slot's sample, 0
// for an empty one.
func (est *estimator) sampleMean(g *gridStats, k meanKey) float64 {
	sample := est.set.sample(k.slot, uint64(k.slot)+3)
	if len(sample) == 0 {
		return 0
	}
	part := g.part
	var sum float64
	if k.kind == meanFourthQuadrant {
		for _, r := range sample {
			sum += float64(part.FourthQuadrantCount(r))
		}
		return clampCost(sum / float64(len(sample)))
	}
	// The sampled marking test: C1–C4 are approximated by the dominant
	// C2 test — the rectangle crosses a cell boundary — and enlarging by
	// the slot's largest incident predicate weight folds C2's
	// range-predicate cases into it.
	for i, split := range est.splitCounts(g, k.slot, k.d) {
		marked := split > 1
		switch {
		case k.kind == meanSplit:
			sum += float64(split)
		case k.kind == meanMarked:
			if marked {
				sum++
			}
		case !marked:
			sum++ // projected to its start cell only
		case k.kind == meanMarkedF1:
			sum += float64(part.FourthQuadrantCount(sample[i]))
		default: // meanMarkedF2
			n := 0
			part.ForEachReplicateF2(sample[i], k.bound, est.metric, func(grid.CellID) { n++ })
			sum += float64(n)
		}
	}
	return clampCost(sum / float64(len(sample)))
}

// slotTotal scales a slot's mean up to its full cardinality: Σ over all
// rectangles of the slot of E[f(r)].
func (est *estimator) slotTotal(g *gridStats, k meanKey) float64 {
	return est.mean(g, k) * est.count(k.slot)
}

// chain estimates the intermediate cardinality after each prefix of the
// plan order: chain[p] is the predicted number of partial tuples over
// order[:p+1]. This is the same independence-chaining the cost-based
// join order uses: the first connecting edge scales by card/N and every
// further connecting edge filters multiplicatively by its selectivity.
func (est *estimator) chain(pl *plan) []float64 {
	if c, ok := est.chains[pl]; ok {
		return c
	}
	out := make([]float64, pl.m)
	out[0] = est.count(pl.order[0])
	cur := out[0]
	for p := 1; p < pl.m; p++ {
		s := pl.order[p]
		// Zero-relation short-circuit: an empty slot joins to nothing,
		// so every chain prefix from here on is exactly 0 — no sampled
		// ratio (and no division) is needed to know that.
		if est.count(s) == 0 || cur == 0 {
			cur = 0
			continue
		}
		grow := cur
		for i, e := range pl.edgesToPrev[p] {
			o := e.Other(s)
			card := est.card(o, s, e.Pred)
			if i == 0 {
				// card/N_o is the expected fanout of one existing
				// partial into slot s; safeDiv treats the empty-slot
				// denominator as zero fanout.
				grow = cur * safeDiv(card, est.count(o))
			} else {
				// Further connecting edges filter multiplicatively by
				// their selectivity card/(N_o·N_s).
				grow *= safeDiv(card, est.count(o)*est.count(s))
			}
		}
		cur = clampCost(grow)
		out[p] = cur
	}
	est.chains[pl] = out
	return out
}

// predict prices a method under a join order on a grid into a
// sanitized Prediction: what Predict returns for a method and what
// PlanQuery ranks it by.
func (est *estimator) predict(method Method, optimize bool, g *gridStats) (*Prediction, error) {
	pl := est.plan(optimize)
	p := &Prediction{Method: method, Cells: g.part.NumCells()}
	switch method {
	case BruteForce:
		// Single-machine reference: no shuffle, no replication.
	case Cascade:
		p.RoundPairs = est.cascadePairs(pl, g)
	case AllReplicate:
		p.RoundPairs, p.Replicated, p.Copies = est.allReplicate(g)
	case ControlledReplicate, ControlledReplicateLimit:
		var err error
		p.RoundPairs, p.Replicated, p.Copies, err = est.controlledReplicate(g, method == ControlledReplicateLimit)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("spatial: unknown method %v", method)
	}
	p.Rounds = len(p.RoundPairs)
	chain := est.chain(pl)
	p.Tuples = chain[len(chain)-1]
	return p.sanitize(), nil
}

// cascadePairs predicts the shuffle volume of each 2-way cascade step:
// the current partials split by their (d-enlarged) key rectangle plus
// the new slot's relation split by its rectangles. The key rectangle of
// a partial is a rectangle of the key slot's base relation, so that
// relation's sampled split factor stands in for the partials'.
func (est *estimator) cascadePairs(pl *plan, g *gridStats) []float64 {
	if pl.m == 1 {
		return nil
	}
	chain := est.chain(pl)
	out := make([]float64, 0, pl.m-1)
	for p := 1; p < pl.m; p++ {
		newSlot := pl.order[p]
		primary := pl.edgesToPrev[p][pl.primary[p]]
		keySplit := est.mean(g, meanKey{slot: primary.Other(newSlot), kind: meanSplit, d: max(primary.Pred.Weight(), 0)})
		newSplits := est.slotTotal(g, meanKey{slot: newSlot, kind: meanSplit})
		out = append(out, chain[p-1]*keySplit+newSplits)
	}
	return out
}

// allReplicate predicts the one-round All-Replicate shuffle: every
// rectangle ships to all cells of its 4th quadrant.
func (est *estimator) allReplicate(g *gridStats) (rounds []float64, replicated, copies float64) {
	var pairs float64
	for s := range est.set.rels {
		pairs += est.slotTotal(g, meanKey{slot: s, kind: meanFourthQuadrant})
		replicated += est.count(s)
	}
	return []float64{pairs}, replicated, pairs
}

// controlledReplicate predicts C-Rep's two rounds. Round one splits
// every rectangle. For round two a rectangle is predicted marked when,
// enlarged by the largest incident predicate weight of its slot, it
// crosses a cell boundary (see sampleMean). Marked rectangles replicate
// with f1 (or f2 within the §7.9 radius when limit is set); unmarked
// ones project once.
func (est *estimator) controlledReplicate(g *gridStats, limit bool) (rounds []float64, replicated, copies float64, err error) {
	q := est.base.q
	if limit && est.bounds == nil && est.boundsErr == nil {
		dmax := make([]float64, len(est.set.stats))
		for s, st := range est.set.stats {
			dmax[s] = st.maxDiag
		}
		est.bounds, est.boundsErr = q.ReplicationBounds(dmax)
	}
	if limit && est.boundsErr != nil {
		return nil, 0, 0, est.boundsErr
	}
	var round1, round2 float64
	for s := range est.set.rels {
		round1 += est.slotTotal(g, meanKey{slot: s, kind: meanSplit})
		ds := 0.0
		for _, e := range q.EdgesAt(s) {
			if w := e.Pred.Weight(); w > ds {
				ds = w
			}
		}
		if limit {
			round2 += est.slotTotal(g, meanKey{slot: s, kind: meanMarkedF2, d: ds, bound: est.bounds[s]})
		} else {
			round2 += est.slotTotal(g, meanKey{slot: s, kind: meanMarkedF1, d: ds})
		}
		replicated += est.slotTotal(g, meanKey{slot: s, kind: meanMarked, d: ds})
	}
	return []float64{round1, round2}, replicated, round2, nil
}
