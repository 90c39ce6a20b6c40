// Package spatial implements the paper's multi-way spatial join
// algorithms on the map-reduce substrate:
//
//   - BruteForce: a single-machine reference join used as ground truth;
//   - Cascade: the naive 2-way Cascade baseline (§6.1), a sequence of
//     2-way map-reduce joins materialising intermediates on the DFS;
//   - AllReplicate: the naive one-round baseline replicating every
//     rectangle to its 4th-quadrant reducers (§6.1);
//   - ControlledReplicate: the paper's contribution (§7, §8, §9) — a
//     two-round job where round one marks the rectangles that must be
//     replicated (conditions C1–C4) and round two replicates only
//     those;
//   - ControlledReplicateLimit: Controlled-Replicate-in-Limit (§7.9),
//     which additionally bounds the replication radius per relation.
//
// All methods accept arbitrary connected queries mixing Overlap and
// Range predicates (§9) and produce identical tuple sets; the
// difference — the entire point of the paper — is how many intermediate
// key-value pairs they ship between mappers and reducers.
package spatial

import (
	"encoding/json"
	"fmt"
	"time"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/mapreduce"
)

// Item is one rectangle of a relation. The ID is the rectangle's index
// within its relation and identifies it in output tuples.
type Item struct {
	ID int32
	R  geom.Rect
}

// Relation is a named dataset of rectangles. Two query slots bound to
// relations with the same Name are treated as a self-join: by default
// an output tuple may not bind the same rectangle to both slots.
//
// A relation carries a summary of its Items — validity, extent, largest
// diagonal, the cost model's fixed-seed samples and the rows every
// execution stages, in sweep order — computed on first use and shared
// by every copy of the value, so planning and executing many queries
// over it walk and sort Items once (see summary.go). Items is read-only
// from that first use on. Appending to it, re-slicing it, replacing it
// or rewriting it in place is noticed and the relation is summarised
// afresh; a write to a single element may go unnoticed and leave the
// old statistics, and the old staged rows, in force.
type Relation struct {
	Name  string
	Items []Item

	sum *relSummary
}

// NewRelation builds a relation whose item IDs are the rectangle
// indices.
func NewRelation(name string, rects []geom.Rect) Relation {
	items := make([]Item, len(rects))
	for i, r := range rects {
		items[i] = Item{ID: int32(i), R: r}
	}
	return Relation{Name: name, Items: items, sum: &relSummary{}}
}

// MaxDiagonal returns the largest rectangle diagonal in the relation —
// the d_max bound of §7.9 — or 0 for an empty relation.
func (rel Relation) MaxDiagonal() float64 { return rel.stats().maxDiag }

// Tuple is one output row: the rectangle IDs bound to the query slots,
// in slot order.
type Tuple struct {
	IDs []int32
}

// Key renders a canonical comparable key for the tuple, used for
// deduplication checks and cross-method result comparison in tests.
func (t Tuple) Key() string {
	buf := make([]byte, 0, 4*len(t.IDs))
	for _, id := range t.IDs {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(buf)
}

func (t Tuple) String() string { return fmt.Sprint(t.IDs) }

// Rows is a join result as one flat slab of IDs: row i binds
// IDs[i*Arity:(i+1)*Arity] to the query's slots, in slot order. Every
// method writes its result this way, and a cluster worker hashes and
// ships it as it stands; Tuples carves it into the public form.
type Rows struct {
	Arity int
	IDs   []int32
}

// Len is the number of rows.
func (r Rows) Len() int {
	if r.Arity == 0 {
		return 0
	}
	return len(r.IDs) / r.Arity
}

// At returns row i without a copy, capped at Arity, so appending to it
// cannot reach row i+1.
func (r Rows) At(i int) []int32 {
	lo := i * r.Arity
	return r.IDs[lo : lo+r.Arity : lo+r.Arity]
}

// Tuples carves the rows into tuples that share the slab, one slice
// header each: the one place a Tuple is built. It is nil when IDs is
// nil, and non-nil, if empty, otherwise.
func (r Rows) Tuples() []Tuple {
	if r.IDs == nil {
		return nil
	}
	tuples := make([]Tuple, r.Len())
	for i := range tuples {
		tuples[i].IDs = r.At(i)
	}
	return tuples
}

// Method selects a join algorithm.
type Method uint8

const (
	// BruteForce runs a single-machine reference join (no map-reduce).
	BruteForce Method = iota
	// Cascade is the naive 2-way Cascade baseline (§6.1).
	Cascade
	// AllReplicate is the naive All-Replicate baseline (§6.1).
	AllReplicate
	// ControlledReplicate is the paper's C-Rep framework (§7–§9).
	ControlledReplicate
	// ControlledReplicateLimit is C-Rep-in-Limit (§7.9, §8).
	ControlledReplicateLimit
)

var methodNames = map[Method]string{
	BruteForce:               "brute-force",
	Cascade:                  "2-way-cascade",
	AllReplicate:             "all-replicate",
	ControlledReplicate:      "c-rep",
	ControlledReplicateLimit: "c-rep-l",
}

func (m Method) String() string {
	if s, ok := methodNames[m]; ok {
		return s
	}
	return fmt.Sprintf("method(%d)", uint8(m))
}

// MarshalJSON renders the method as its String name, so JSON bench
// reports are readable and stable across renumberings of the constants.
func (m Method) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.String())
}

// UnmarshalJSON parses a method name as printed by String.
func (m *Method) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := ParseMethod(s)
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// ParseMethod resolves a method name as printed by String.
func ParseMethod(s string) (Method, error) {
	for m, name := range methodNames {
		if name == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("spatial: unknown method %q", s)
}

// Methods lists all executable methods in presentation order.
func Methods() []Method {
	return []Method{BruteForce, Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit}
}

// Stats aggregates the cost metrics of one join execution. The
// replication counters implement the paper's §7.8.3 metrics.
type Stats struct {
	Method Method
	// Rounds holds the per-map-reduce-job engine stats, in execution
	// order (Cascade has one entry per 2-way join; C-Rep has two).
	Rounds []*mapreduce.Stats
	// RectanglesReplicated is the §7.8.3 "number of rectangles
	// replicated": rectangles chosen for replication (marked by C-Rep;
	// all rectangles for All-Replicate).
	RectanglesReplicated int64
	// RectanglesAfterReplication is the §7.8.3 aggregated count of
	// rectangle copies communicated to the join round's reducers — the
	// parenthesised numbers in the paper's tables. Projections of
	// unreplicated rectangles count once each; the paper's published
	// values only reconcile under that reading (Table 2, nI=1: 3.9M
	// copies for 3M inputs of which 0.05M were marked).
	RectanglesAfterReplication int64
	// ReplicationCopies is the stricter breakdown: copies produced by
	// the replicate operation alone, excluding projections.
	ReplicationCopies int64
	// DFS is the delta of file-system counters caused by this
	// execution (intermediate materialisation for Cascade and C-Rep).
	DFS dfs.Stats
	// Chain reports the job chain's recovery accounting: jobs run vs.
	// resumed from checkpoints, and checkpoint bytes written/read. Nil
	// for methods that run no chain (BruteForce).
	Chain *mapreduce.ChainStats
	// OutputTuples is the number of result tuples.
	OutputTuples int64
	// Wall is the end-to-end execution time, the paper's "time taken".
	Wall time.Duration
}

// IntermediatePairs sums the communicated key-value pairs across all
// rounds — the paper's communication-cost figure of merit.
func (s *Stats) IntermediatePairs() int64 {
	var n int64
	for _, r := range s.Rounds {
		n += r.IntermediatePairs
	}
	return n
}

// Result is the output of a join execution.
type Result struct {
	Tuples []Tuple
	Stats  Stats
}

// TupleSet returns the result as a set of canonical keys.
func (r *Result) TupleSet() map[string]bool {
	set := make(map[string]bool, len(r.Tuples))
	for _, t := range r.Tuples {
		set[t.Key()] = true
	}
	return set
}
