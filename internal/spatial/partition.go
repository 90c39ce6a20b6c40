package spatial

import (
	"fmt"

	"mwsjoin/internal/grid"
)

// PartitionScheme selects how the reducer grid is derived from the
// bound relations when Config.Part is nil.
type PartitionScheme uint8

const (
	// PartitionUniform is the paper's √k × √k uniform grid over the
	// data bounds (§5.1). Default.
	PartitionUniform PartitionScheme = iota
	// PartitionAdaptive is the sample-driven skew-aware partitioning:
	// hot regions split recursively, cold rows/columns merge, capped at
	// k cells (see grid.NewAdaptive).
	PartitionAdaptive
)

func (s PartitionScheme) String() string {
	if s == PartitionAdaptive {
		return "adaptive"
	}
	return "uniform"
}

// ParsePartitionScheme resolves a scheme name; the empty string is the
// uniform default.
func ParsePartitionScheme(s string) (PartitionScheme, error) {
	switch s {
	case "", "uniform":
		return PartitionUniform, nil
	case "adaptive":
		return PartitionAdaptive, nil
	}
	return 0, fmt.Errorf("spatial: unknown partition scheme %q (want uniform or adaptive)", s)
}

// adaptiveSampleStream offsets the sampler streams the adaptive
// partitioner draws from, keeping them disjoint from the EXPLAIN cost
// model's streams (1, 2 and 3+slot).
const adaptiveSampleStream = 0x5eed

// AdaptivePartitioning builds the skew-aware reducer grid for the
// bound relations: each distinct relation contributes a deterministic
// uniform sample of its rectangles, and grid.NewAdaptive splits hot
// regions and merges cold ones into at most k cells over the full data
// bounds. k ≤ 0 uses the paper's 64-reducer default; unlike the
// uniform scheme, k need not be a perfect square. splitThreshold ≤ 0
// uses the default (see grid.AdaptiveOptions.SplitThreshold). Empty
// relations fall back to the uniform default grid.
func AdaptivePartitioning(rels []Relation, k int, splitThreshold float64) (*grid.Partitioning, error) {
	return BuildPartitioning(PartitionAdaptive, rels, k, splitThreshold)
}

// BuildPartitioning resolves a partition scheme to a concrete reducer
// grid over the bound relations, the shared entry point of Execute,
// Predict, the planner, the public Options and the join service — so
// the partitioning EXPLAIN prices is the one the run uses. The samples
// and the extent come from the relations' summaries, and the grid is
// remembered for the relation set (relationSet.grid): asking again for
// the same relations, scheme, k and threshold returns the same grid.
func BuildPartitioning(scheme PartitionScheme, rels []Relation, k int, splitThreshold float64) (*grid.Partitioning, error) {
	g, err := summaries(rels).grid(scheme, k, splitThreshold)
	if err != nil {
		return nil, err
	}
	return g.part, nil
}
