package spatial

import (
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/estimate"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/grid"
)

// Every statistic the planner, the partitioners and Execute's checks
// need about a relation is computed once, by this file, and read from
// then on (DESIGN.md §4h):
//
//   - per relation: relStats — validity, count, extent, largest
//     diagonal, the fixed-seed samples, the sweep order the relation
//     is staged in and the content digest, held on the Relation value;
//   - per relation set: gridStats — a reducer grid and the fan-out
//     means on it that no query's range can change, held on the set's
//     leading relation in a fixed-size memo;
//   - per plan: the estimator of explain.go.

// planSeed seeds every sample the cost model draws. The streams are
// 1 and 2 (the two sides of a sampled join), 3+slot (a slot's fan-out
// sample) and adaptiveSampleStream+slot (the adaptive partitioner's
// input), and never change, so a prediction is a function of the data.
const planSeed = 2013

// probeItems is how many evenly spaced items a summary remembers to
// notice Items being rewritten in place under it.
const probeItems = 16

// relSummary is what a Relation value carries: the summary of the Items
// it was last used with. Copies of the value share it.
type relSummary struct {
	mu  sync.Mutex
	cur *relStats
}

// statsIDs numbers relStats so a relation-set memo can name the exact
// contents it was computed from without holding on to them.
var statsIDs atomic.Uint64

// relStats summarises one relation's Items as they were when it was
// built. Everything but the lazily drawn samples is immutable.
type relStats struct {
	id uint64
	n  int
	// The staleness guard: the slice the summary describes and a probe
	// of its contents (see describes).
	first *Item
	probe [probeItems]Item

	// invalid is the first rectangle Validate rejects, nil when none.
	invalid   error
	invalidID int32

	// Extent of all rectangles (unset while n == 0) and the largest
	// diagonal, the d_max of §7.9.
	minX, minY, maxX, maxY float64
	maxDiag                float64

	mu sync.Mutex
	// samples holds the draws by stream id, in draw order (all, every
	// rectangle, for each stream of a relation no larger than the sample
	// size); sorted the MinX-ordered copies sampled joins sweep.
	all     []geom.Rect
	samples map[uint64][]geom.Rect
	sorted  map[uint64][]geom.Rect
	// staged is the relation as the DFS holds it (see stagedRows).
	staged []byte
	// digest is the contents' hash (see Digest), set once hashed is.
	digest [sha256.Size]byte
	hashed bool
	// grids is the memo of the relation sets this relation leads.
	grids gridMemo
}

// probeAt is the position of the i-th probed item among n.
func probeAt(i, n int) int { return int(int64(i) * int64(n) / probeItems) }

// sameItem compares bit for bit, so a NaN coordinate equals itself.
func sameItem(a, b Item) bool {
	return a.ID == b.ID &&
		math.Float64bits(a.R.X) == math.Float64bits(b.R.X) && math.Float64bits(a.R.Y) == math.Float64bits(b.R.Y) &&
		math.Float64bits(a.R.L) == math.Float64bits(b.R.L) && math.Float64bits(a.R.B) == math.Float64bits(b.R.B)
}

// summarize is the one walk over a relation's items.
func summarize(items []Item) *relStats {
	st := &relStats{id: statsIDs.Add(1), n: len(items)}
	if len(items) == 0 {
		return st
	}
	st.first = &items[0]
	for i := range st.probe {
		st.probe[i] = items[probeAt(i, len(items))]
	}
	st.minX, st.minY = math.Inf(1), math.Inf(1)
	st.maxX, st.maxY = math.Inf(-1), math.Inf(-1)
	for _, it := range items {
		if st.invalid == nil {
			if err := it.R.Validate(); err != nil {
				st.invalid, st.invalidID = err, it.ID
			}
		}
		st.minX = math.Min(st.minX, it.R.MinX())
		st.minY = math.Min(st.minY, it.R.MinY())
		st.maxX = math.Max(st.maxX, it.R.MaxX())
		st.maxY = math.Max(st.maxY, it.R.MaxY())
		if d := it.R.Diagonal(); d > st.maxDiag {
			st.maxDiag = d
		}
	}
	return st
}

// describes reports whether the summary was built from these items: the
// same backing array at the same length (appending, re-slicing and
// replacing all change one or the other) with the probed items
// untouched. A rewrite of the relation in place moves every probe; a
// write to a single element usually moves none and cannot be seen
// without a walk, which is why Relation documents Items as read-only
// once the relation has been used.
func (st *relStats) describes(items []Item) bool {
	if len(items) != st.n {
		return false
	}
	if st.n == 0 {
		return true
	}
	if &items[0] != st.first {
		return false
	}
	for i, it := range st.probe {
		if !sameItem(items[probeAt(i, st.n)], it) {
			return false
		}
	}
	return true
}

// stats returns the summary of the relation's current Items, building
// it on first use and again when the guard says Items changed. Copies
// of a Relation made by NewRelation share one summary, and concurrent
// first users wait for one build. A Relation assembled as a literal has
// nowhere to keep a summary and is summarised per call.
func (rel Relation) stats() *relStats {
	h := rel.sum
	if h == nil {
		return summarize(rel.Items)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cur == nil || !h.cur.describes(rel.Items) {
		h.cur = summarize(rel.Items)
	}
	return h.cur
}

// Summarized returns the relation with its summary computed now rather
// than on first use, so a caller that registers relations ahead of the
// queries (the join service, a cluster worker) pays the walk and the
// sweep-order sort on arrival. A relation assembled as a literal gains
// a place to keep the summary.
func (rel Relation) Summarized() Relation {
	if rel.sum == nil {
		rel.sum = &relSummary{}
	}
	rel.stats().stagedRows(rel.Items)
	return rel
}

// stagedRows returns the relation's rows as every execution stages them
// (stageInputs): MBB records in sweep order — ascending (MinX,
// position), the order a reducer sweeps. A map split is then a run of
// that order, and the shuffle concatenates a cell's runs in mapper
// order, so every side a reducer reads from a staged relation arrives
// sorted. Laid out on first use; items must be the slice the summary
// describes.
func (st *relStats) stagedRows(items []Item) []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.staged == nil {
		st.staged = stageRows(items)
	}
	return st.staged
}

// Digest returns the sha-256 of the relation's contents: its Items,
// packed (AppendPacked), in order. The name is not part of it, so two
// relations with one digest hold the same items in the same order and
// join alike under any names. It is computed once per summary, so it is
// a hash of the Items the relation was first used with (Items are
// read-only from then on).
func (rel Relation) Digest() [sha256.Size]byte {
	return rel.stats().contentDigest(rel.Items)
}

// contentDigest hashes items on first use, packed a block at a time;
// items must be the slice the summary describes.
func (st *relStats) contentDigest(items []Item) [sha256.Size]byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.hashed {
		const block = 128
		h := sha256.New()
		buf := make([]byte, 0, block*PackedItemBytes)
		for len(items) > 0 {
			n := min(block, len(items))
			h.Write(AppendPacked(buf[:0], items[:n]))
			items = items[n:]
		}
		h.Sum(st.digest[:0])
		st.hashed = true
	}
	return st.digest
}

// stageScratch is stageRows' sort working set, recycled: a cluster
// worker stages every relation it receives.
type stageScratch struct{ xs, words, buf []uint64 }

var stageScratchPool = sync.Pool{New: func() any { return new(stageScratch) }}

// stageRows sorts a whole relation with the cells' word sort and lays
// its rows out in that order, as slot-0 unmarked MBB records in one
// buffer of exactly their size.
func stageRows(items []Item) []byte {
	sc := stageScratchPool.Get().(*stageScratch)
	defer stageScratchPool.Put(sc)
	n := len(items)
	if cap(sc.words) < n {
		sc.xs, sc.words = make([]uint64, n), make([]uint64, n)
	}
	sc.xs, sc.words = sc.xs[:n], sc.words[:n]
	for i := range items {
		sc.xs[i], sc.words[i] = sweepOrder(items[i].R.MinX()), uint64(i)
	}
	sortSweepWords(sc.words, sc.xs, &sc.buf)
	rows := make([]byte, 0, n*dfs.MBBRecordBytes)
	for _, w := range sc.words {
		it := &items[uint32(w)]
		rows = dfs.AppendMBB(rows, dfs.MBB{ID: it.ID, X: it.R.X, Y: it.R.Y, L: it.R.L, B: it.R.B})
	}
	return rows
}

// sample returns the relation's fixed-seed draw for a stream, in draw
// order: every rectangle, in item order, when the relation is no larger
// than the sample size. items must be the slice the summary describes.
func (st *relStats) sample(items []Item, stream uint64) []geom.Rect {
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.samples[stream]; ok {
		return s
	}
	var s []geom.Rect
	if idx := estimate.NewSampler(0, planSeed).Indices(st.n, stream); idx != nil {
		s = make([]geom.Rect, len(idx))
		for i, j := range idx {
			s[i] = items[j].R
		}
	} else {
		if st.all == nil {
			st.all = make([]geom.Rect, st.n)
			for i := range st.all {
				st.all[i] = items[i].R
			}
		}
		s = st.all
	}
	if st.samples == nil {
		st.samples = map[uint64][]geom.Rect{}
	}
	st.samples[stream] = s
	return s
}

// sortedSample returns the stream's draw ordered by MinX, the order a
// sampled join sweeps in.
func (st *relStats) sortedSample(items []Item, stream uint64) []geom.Rect {
	draw := st.sample(items, stream)
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.sorted[stream]; ok {
		return s
	}
	s := slices.Clone(draw)
	estimate.SortByMinX(s)
	if st.sorted == nil {
		st.sorted = map[uint64][]geom.Rect{}
	}
	st.sorted[stream] = s
	return s
}

// relationSet is the bound relations of one call with their summaries,
// slot by slot.
type relationSet struct {
	rels  []Relation
	stats []*relStats
}

func summaries(rels []Relation) relationSet {
	set := relationSet{rels: rels, stats: make([]*relStats, len(rels))}
	for s, rel := range rels {
		set.stats[s] = rel.stats()
	}
	return set
}

// validate reports the first invalid rectangle in slot order, with the
// error Execute and Predict have always returned for it.
func (set relationSet) validate() error {
	for s, st := range set.stats {
		if st.invalid != nil {
			return fmt.Errorf("spatial: relation %q (slot %d) item %d: %w", set.rels[s].Name, s, st.invalidID, st.invalid)
		}
	}
	return nil
}

// sample is slot s's draw for a stream.
func (set relationSet) sample(s int, stream uint64) []geom.Rect {
	return set.stats[s].sample(set.rels[s].Items, stream)
}

// sortedSample is slot s's draw for a stream, ordered by MinX.
func (set relationSet) sortedSample(s int, stream uint64) []geom.Rect {
	return set.stats[s].sortedSample(set.rels[s].Items, stream)
}

// bounds is the bounding box of all bound relations, widened to
// positive area (unit square for empty data) and to an extent a grid
// can be cut from on every axis (cuttable).
func (set relationSet) bounds() geom.Rect {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	any := false
	for _, st := range set.stats {
		if st.n == 0 {
			continue
		}
		any = true
		minX = math.Min(minX, st.minX)
		minY = math.Min(minY, st.minY)
		maxX = math.Max(maxX, st.maxX)
		maxY = math.Max(maxY, st.maxY)
	}
	if !any {
		minX, minY, maxX, maxY = 0, 0, 1, 1
	}
	maxX, maxY = cuttable(minX, maxX), cuttable(minY, maxY)
	return geom.RectFromCorners(geom.Point{X: minX, Y: minY}, geom.Point{X: maxX, Y: maxY})
}

// cuttable returns the upper end of an axis from lo to hi, moved up
// when the axis is too narrow for a grid's cuts to be distinct floats:
// narrower than 2¹² ulps of its larger end, the width at which 1,024
// columns are still four ulps apart. Such an axis — a degenerate one
// among them — becomes one unit wide, or 2¹² ulps where a unit is less
// than that.
func cuttable(lo, hi float64) float64 {
	mag := math.Max(math.Abs(lo), math.Abs(hi))
	if least := 0x1p12 * (math.Nextafter(mag, math.Inf(1)) - mag); hi-lo < least {
		return lo + math.Max(1, least)
	}
	return hi
}

// gridMemoSize bounds the grids a relation remembers for the sets it
// leads. The join service prices one per set — its configured grid; the
// rest is room for the sets led by the same relation and for callers
// that ask for several grids over one set.
const gridMemoSize = 32

// gridKey names everything a grid and the query-independent fan-out
// means on it depend on: which contents sit in which slot under
// which name (set), and how the grid is cut.
type gridKey struct {
	set    string
	scheme PartitionScheme
	k      int
	thr    float64
}

// gridStats is one grid of a relation set and the fan-out means of the
// set's samples on it that do not depend on a query.
type gridStats struct {
	part *grid.Partitioning

	mu    sync.Mutex
	means map[meanKey]float64
}

// gridMemo is a fixed-size least-recently-used memo of gridStats.
// Entries are found by key alone — replacing a relation, or its Items,
// makes a new summary with a new id and so a new key — and the oldest
// entry makes room when the memo is full. Guarded by the owning
// relStats' mutex.
type gridMemo struct {
	entries map[gridKey]*gridMemoEntry
	clock   uint64
}

type gridMemoEntry struct {
	g    *gridStats
	used uint64
}

func (m *gridMemo) get(k gridKey) *gridStats {
	e, ok := m.entries[k]
	if !ok {
		return nil
	}
	m.clock++
	e.used = m.clock
	return e.g
}

func (m *gridMemo) put(k gridKey, g *gridStats) {
	if m.entries == nil {
		m.entries = make(map[gridKey]*gridMemoEntry, gridMemoSize)
	}
	if len(m.entries) >= gridMemoSize {
		var oldest gridKey
		used := uint64(math.MaxUint64)
		for key, e := range m.entries {
			if e.used < used {
				oldest, used = key, e.used
			}
		}
		delete(m.entries, oldest)
	}
	m.clock++
	m.entries[k] = &gridMemoEntry{g: g, used: m.clock}
}

// setKey renders the set's identity: per slot the relation's name (the
// adaptive sample skips a repeated name) and its summary's id.
func (set relationSet) setKey() string {
	key := make([]byte, 0, 24*len(set.rels))
	for s, rel := range set.rels {
		key = fmt.Appendf(key, "%s\x00%x\x00", rel.Name, set.stats[s].id)
	}
	return string(key)
}

// grid returns the set's reducer grid for a scheme, resolution and
// split threshold, building it on first use: the paper's √k × √k
// uniform grid over the data bounds (§5.1, 64 reducers when k ≤ 0, k a
// perfect square), or the sample-driven skew-aware one. Later calls
// over the same relations — any query — get the same grid and whatever
// fan-out means have been taken on it.
func (set relationSet) grid(scheme PartitionScheme, k int, splitThreshold float64) (*gridStats, error) {
	if k <= 0 {
		k = 64
	}
	if scheme != PartitionAdaptive || splitThreshold <= 0 {
		splitThreshold = 0
	}
	if len(set.stats) == 0 {
		part, err := set.buildGrid(scheme, k, splitThreshold)
		return &gridStats{part: part}, err
	}
	lead := set.stats[0]
	key := gridKey{set: set.setKey(), scheme: scheme, k: k, thr: splitThreshold}
	lead.mu.Lock()
	g := lead.grids.get(key)
	lead.mu.Unlock()
	if g != nil {
		return g, nil
	}
	// Built outside the lock: two first users may both build, and agree.
	part, err := set.buildGrid(scheme, k, splitThreshold)
	if err != nil {
		return nil, err
	}
	lead.mu.Lock()
	defer lead.mu.Unlock()
	if g := lead.grids.get(key); g != nil {
		return g, nil
	}
	g = &gridStats{part: part}
	lead.grids.put(key, g)
	return g, nil
}

func (set relationSet) buildGrid(scheme PartitionScheme, k int, splitThreshold float64) (*grid.Partitioning, error) {
	if scheme == PartitionAdaptive {
		// Each distinct relation contributes a deterministic uniform
		// sample of its rectangles (the pre-pass a real deployment would
		// run as a cheap sampling job).
		sample := make([]geom.Rect, 0, estimate.DefaultSampleSize*len(set.rels))
		seen := map[string]bool{}
		for s, rel := range set.rels {
			if seen[rel.Name] {
				continue
			}
			seen[rel.Name] = true
			sample = append(sample, set.sample(s, adaptiveSampleStream+uint64(s))...)
		}
		if len(sample) > 0 {
			return grid.NewAdaptive(sample, grid.AdaptiveOptions{
				Target:         k,
				SplitThreshold: splitThreshold,
				Bounds:         set.bounds(),
			})
		}
		k = 64 // empty relations fall back to the uniform default grid
	}
	side := int(math.Round(math.Sqrt(float64(k))))
	if side*side != k {
		return nil, fmt.Errorf("spatial: reducer count %d is not a perfect square", k)
	}
	return grid.NewUniform(set.bounds(), side, side)
}
