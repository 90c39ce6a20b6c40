package spatial

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/query"
	"mwsjoin/internal/trace"
)

// joinFrame is the side of the square the fuzzed coordinates are laid
// on: divisible by every grid side from 1 to 8, so with the frame
// rectangle present (joinFramed) every uniform cut is a lattice point.
const joinFrame = 840

// joinSpecials are the coordinates outside the lattice a fuzzed x or y
// byte from 0xf8 up picks: the ±1e9 construction of
// TestExtremeCoordinateRangeJoin, signed zeros, the smallest subnormal
// and the frame's far edge.
var joinSpecials = [8]float64{1e9, -1e9 - 1, 0.29999996, -0.29999996, math.Copysign(0, -1), 0x1p-1074, joinFrame, joinFrame / 2}

// Bits of a fuzzed join's config byte.
const (
	joinAdaptive  = 1 << 0 // the adaptive grid, not the uniform one
	joinPar2      = 1 << 1 // Parallelism 2
	joinOptimize  = 1 << 2 // OptimizeOrder: the cost-based join order
	joinMappersLo = 3      // bits 3–4: NumMappers − 1
	joinFramed    = 1 << 5 // slot 0's relation leads with the frame rectangle
	joinSelfPairs = 1 << 6 // AllowSelfPairs
	joinFaults    = 1 << 7 // the first attempt of mapper 0 and of one reducer fails
)

// joinRepeat as a rectangle's first byte repeats the relation's previous
// item verbatim, ID included.
const joinRepeat = 0xff

// joinCase is one decoded FuzzJoin input.
type joinCase struct {
	q    *query.Query
	rels []Relation
	cfg  Config
	// traced is the method FuzzJoin also runs with a Tracer.
	traced Method
}

// decodeJoinCase turns any bytes into a join (missing bytes read as 0):
//
//	shape:  m = 2 + b%3 slots; b/3%3 picks a chain, a star or (m ≥ 3) a
//	        cycle; b/9 picks the traced method
//	config: the joinAdaptive … joinFaults bits
//	cells:  the uniform grid's side 1 + b%8, or 1 + b%64 adaptive cells
//	per edge: b%5 = 0 is ov, else ra(d) for d ∈ {0, one lattice ulp,
//	        a lattice step, 1e9 + 0.3}
//	per slot: b%(s+1) < s binds slot s to that slot's relation (a
//	        self-join), = s to a new relation: a count byte, then per
//	        rectangle x, y, l, b bytes or joinRepeat
//
// Coordinates are half-steps of the lattice joinFrame/side or
// joinSpecials; extents are 0 (three times in eight), one to four
// half-steps, the frame, or one lattice ulp. A relation holds at most
// 40 rectangles, 12 when m = 4, and the frame beside them.
func decodeJoinCase(data []byte) joinCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	h := next()
	m := 2 + int(h%3)
	c := next()
	cells := next()
	side := 1 + int(cells%8)
	half := float64(joinFrame) / float64(2*side)
	ulp := math.Nextafter(joinFrame, math.Inf(1)) - joinFrame
	coord := func(b byte) float64 {
		if b >= 0xf8 {
			return joinSpecials[b-0xf8]
		}
		return float64(int(b)%(2*side+1)) * half
	}
	extent := func(b byte) float64 {
		return [8]float64{0, 0, 0, half, 2 * half, 4 * half, joinFrame, ulp}[b%8]
	}

	slots := make([]string, m)
	for s := range slots {
		slots[s] = fmt.Sprint("S", s)
	}
	q := query.New(slots...)
	var edges [][2]int
	switch h / 3 % 3 {
	case 1: // star
		for s := 1; s < m; s++ {
			edges = append(edges, [2]int{0, s})
		}
	default: // chain, closed into a cycle when there is room
		for s := 1; s < m; s++ {
			edges = append(edges, [2]int{s - 1, s})
		}
		if h/3%3 == 2 && m >= 3 {
			edges = append(edges, [2]int{m - 1, 0})
		}
	}
	for _, e := range edges {
		switch p := next() % 5; p {
		case 0:
			q.Overlap(e[0], e[1])
		default:
			q.Range(e[0], e[1], [4]float64{0, ulp, 2 * half, 1e9 + 0.3}[p-1])
		}
	}

	maxItems := 40
	if m == 4 {
		maxItems = 12
	}
	rels := make([]Relation, m)
	for s := range rels {
		if r := int(next()) % (s + 1); r < s {
			rels[s] = rels[r]
			continue
		}
		var items []Item
		if s == 0 && c&joinFramed != 0 {
			items = append(items, Item{ID: 0, R: geom.Rect{X: 0, Y: joinFrame, L: joinFrame, B: joinFrame}})
		}
		for n := len(items) + int(next())%(maxItems+1); len(items) < n; {
			if b := next(); b == joinRepeat && len(items) > 0 {
				items = append(items, items[len(items)-1])
			} else {
				x, y := coord(b), coord(next())
				l, bh := extent(next()), extent(next())
				// y is the bottom edge, so that a lattice y is a lattice MinY.
				items = append(items, Item{ID: int32(len(items)), R: geom.Rect{X: x, Y: y + bh, L: l, B: bh}})
			}
		}
		rels[s] = Relation{Name: fmt.Sprint("R", s), Items: items}
	}

	cfg := Config{
		Reducers:       side * side,
		Parallelism:    1 + int(c&joinPar2)/joinPar2,
		NumMappers:     1 + int(c>>joinMappersLo&3),
		OptimizeOrder:  c&joinOptimize != 0,
		AllowSelfPairs: c&joinSelfPairs != 0,
	}
	if c&joinAdaptive != 0 {
		cfg.Scheme, cfg.Reducers = PartitionAdaptive, 1+int(cells%64)
	}
	if c&joinFaults != 0 {
		// The reducer is the middle cell of the configured grid; an
		// adaptive grid may cut fewer cells, and then no reducer fails.
		failed := cfg.Reducers / 2
		cfg.MaxAttempts = 3
		cfg.FailMap = func(mapper, attempt int) bool { return mapper == 0 && attempt == 1 }
		cfg.FailReduce = func(reducer, attempt int) bool { return reducer == failed && attempt == 1 }
	}
	methods := Methods()
	return joinCase{q: q, rels: rels, cfg: cfg, traced: methods[int(h/9)%len(methods)]}
}

// stageInItemsOrder writes each relation to fs the way a caller that
// staged its own inputs would: in Items order, not sweep order, so the
// reducers take their sorting fallback.
func stageInItemsOrder(t *testing.T, fs *dfs.FS, rels []Relation) {
	t.Helper()
	for _, rel := range rels {
		name := inputFile(rel.Name)
		if fs.Exists(name) {
			continue
		}
		w := fs.CreateMBB(name)
		for _, it := range rel.Items {
			w.Append(dfs.MBB{ID: it.ID, X: it.R.X, Y: it.R.Y, L: it.R.L, B: it.R.B})
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// joinSeed encodes a FuzzJoin input from its parts in decodeJoinCase's
// order: the shape, config and cells bytes, one byte per edge, and per
// slot its binding byte followed, for a new relation, by its count and
// rectangle bytes.
func joinSeed(shape, config, cells byte, edges []byte, slots ...[]byte) []byte {
	seed := append([]byte{shape, config, cells}, edges...)
	for _, s := range slots {
		seed = append(seed, s...)
	}
	return seed
}

// FuzzJoin is the differential target for the whole join: every method
// must return exactly the kernel-free reference's tuple multiset
// (referenceTuples), on a fresh FS — the staged relations in sweep
// order, each reducer only checking its sides — and on an FS the
// caller staged in Items order, where the reducers sort. C-Rep's
// RectanglesReplicated must equal a pass over the relations against
// its mark checkpoint (markedByRelationPass). A two-worker
// SPMD run over distHub must return what the one-process run returns,
// tuples in order and Stats alike. Task failures may be injected
// (joinFaults), and one method runs once more with a Tracer: tracing
// must change neither its tuples nor its Stats, and must leave every
// span closed and finished, job spans matching the Stats' rounds.
//
// The seeds are the regressions found by hand: verbatim-repeated
// records under C-Rep's mark round, the ±1e9 range join every method
// answered with nothing, and rectangles lying on the cuts of a framed
// uniform grid.
func FuzzJoin(f *testing.F) {
	// x, y, l, b bytes of one rectangle (coordinates are half-step
	// indices on the lattice, extents pick from decodeJoinCase's table).
	rect := func(x, y, l, b byte) []byte { return []byte{x, y, l, b} }
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	// Repeats: a 2 × 2 framed grid (half-steps of 210); a record across
	// the x = 420 cut that C-Rep marks, and one deep in a cell, each
	// stored twice, joined to a relation that meets both, and a self-join
	// over the repeats.
	repeats := cat([]byte{4}, rect(1, 3, 4, 3), []byte{joinRepeat}, rect(0, 0, 3, 3), []byte{joinRepeat})
	f.Add(joinSeed(0, joinFramed, 1, []byte{0}, []byte{0}, repeats, []byte{1, 3}, rect(2, 3, 3, 3), rect(0, 0, 4, 4), rect(3, 1, 3, 3)))
	f.Add(joinSeed(1, joinFramed|joinOptimize|1<<joinMappersLo, 1, []byte{0, 1}, []byte{0}, repeats, []byte{0}, []byte{2, 2}, rect(2, 3, 3, 3), rect(0, 0, 4, 4)))
	// ±1e9: one box at x = 1e9 and points at x = −0.29999996 under
	// ra(1e9 + 0.3), whose gap rounds to the stored distance.
	points := []byte{20}
	for i := range 20 {
		points = append(points, rect(0xfb, byte(i), 0, 0)...)
	}
	f.Add(joinSeed(0, 0, 7, []byte{4}, cat([]byte{0, 1}, rect(0xf8, 4, 3, 6)), cat([]byte{1}, points)))
	f.Add(joinSeed(1, joinAdaptive|joinPar2, 15, []byte{4, 4}, cat([]byte{0, 2}, rect(0xf8, 4, 3, 6), rect(0xf9, 2, 3, 6)), cat([]byte{1}, points), []byte{0}))
	// Grid-aligned: a framed 4 × 4 grid (half-steps of 105), points on cut
	// intersections, zero-width and zero-height segments on cuts, and
	// cell-aligned boxes, under ov and ra(one lattice step).
	aligned := cat([]byte{12}, rect(2, 2, 0, 0), rect(4, 4, 0, 3), rect(2, 6, 4, 0), rect(6, 2, 0, 4),
		rect(0, 4, 0, 0), rect(8, 8, 0, 0), rect(2, 2, 4, 4), rect(4, 4, 4, 4), rect(3, 5, 4, 4),
		rect(6, 0, 0, 0), rect(0, 6, 5, 0), rect(1, 1, 3, 3))
	f.Add(joinSeed(7, joinFramed|joinPar2|3<<joinMappersLo, 3, []byte{0, 3, 0}, cat([]byte{0}, aligned), cat([]byte{1, 6}, aligned[1:1+4*6]), cat([]byte{2, 6}, aligned[1+4*6:])))
	f.Add(joinSeed(2, joinFramed|joinSelfPairs, 3, []byte{3, 0, 2}, cat([]byte{0}, aligned), []byte{0}, cat([]byte{2, 9}, aligned[1+4*3:]), []byte{0}))
	// What this target found first. One rectangle one ulp tall: its
	// relations' extent was too narrow for a 2 × 2 grid's cuts to be
	// distinct, and every method failed to build the grid.
	f.Add([]byte("0B100*0007"))
	// A star of ra(210) edges over one relation on an adaptive grid with
	// a column one ulp wide: C-Rep-L's radius for the centre rounded to
	// 209.9999999999999, and the tuples whose centre lies exactly 210
	// from a leaf were lost.
	f.Add([]byte("1Ac000070C&0000107"))
	// A star of ov edges whose relation has a segment at y = −0.29999996:
	// the grid's bottom edge, computed as Y − B, rounded to just above
	// it, and C-Rep-L's f2 replication, measuring from the rounded cell,
	// sent the segment nowhere, not even to its own cell.
	f.Add([]byte("1A022000100000010000\xfb$"))
	// The repeats seed with injected task failures, traced under C-Rep.
	f.Add(joinSeed(27, joinFramed|joinFaults|1<<joinMappersLo, 1, []byte{0}, []byte{0}, repeats, []byte{1, 3}, rect(2, 3, 3, 3), rect(0, 0, 4, 4), rect(3, 1, 3, 3)))

	f.Fuzz(func(t *testing.T, data []byte) {
		jc := decodeJoinCase(data)
		want := referenceTuples(jc.q, jc.rels, jc.cfg.AllowSelfPairs)
		// Every combination qualifying under ra(1e9 + 0.3) makes 64,000
		// tuples and a second per input; the fuzzer's time goes further
		// on joins whose answers are a choice.
		if len(want) > 4096 {
			t.Skipf("%d tuples", len(want))
		}
		oneWorker := map[Method]*Result{}
		for _, prestaged := range []bool{false, true} {
			for _, m := range Methods() {
				cfg := jc.cfg
				cfg.FS = dfs.New(0)
				if prestaged {
					stageInItemsOrder(t, cfg.FS, jc.rels)
				}
				res, err := Execute(m, jc.q, jc.rels, cfg)
				if err != nil {
					t.Fatalf("%v on %s (pre-staged %v): %v", m, jc.q, prestaged, err)
				}
				if got := tupleMultiset(res); !slices.Equal(got, want) {
					t.Fatalf("%v on %s (pre-staged %v, %+v): %d tuples, the reference %d",
						m, jc.q, prestaged, jc.cfg, len(got), len(want))
				}
				if m == ControlledReplicate || m == ControlledReplicateLimit {
					if want := markedByRelationPass(t, cfg.FS, m, jc.rels); res.Stats.RectanglesReplicated != want {
						t.Fatalf("%v on %s (pre-staged %v): RectanglesReplicated %d, a pass over the relations marks %d",
							m, jc.q, prestaged, res.Stats.RectanglesReplicated, want)
					}
				}
				if !prestaged {
					oneWorker[m] = res
				}
			}
		}
		cfg := jc.cfg
		cfg.FS, cfg.Tracer = dfs.New(0), trace.New()
		traced, err := Execute(jc.traced, jc.q, jc.rels, cfg)
		if err != nil {
			t.Fatalf("%v on %s, traced: %v", jc.traced, jc.q, err)
		}
		plain := oneWorker[jc.traced]
		if !reflect.DeepEqual(traced.Tuples, plain.Tuples) {
			t.Fatalf("%v on %s: tracing changed the tuples", jc.traced, jc.q)
		}
		if got, want := normalizeSpatialStats(traced.Stats), normalizeSpatialStats(plain.Stats); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v on %s: tracing changed Stats:\n got %+v\nwant %+v", jc.traced, jc.q, got, want)
		}
		checkTimeline(t, jc.traced.String(), cfg.Tracer.Spans(), &traced.Stats)
		for _, m := range distMethods() {
			results, errs := executeDistributed(t, 2, m, jc.q, jc.rels, jc.cfg)
			for w, res := range results {
				if errs[w] != nil {
					t.Fatalf("%v on %s, worker %d of 2: %v", m, jc.q, w, errs[w])
				}
				if !reflect.DeepEqual(res.Tuples, oneWorker[m].Tuples) {
					t.Fatalf("%v on %s, worker %d of 2: the tuples differ from one worker's", m, jc.q, w)
				}
				if got, want := normalizeSpatialStats(res.Stats), normalizeSpatialStats(oneWorker[m].Stats); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v on %s, worker %d of 2: Stats differ from one worker's:\n got %+v\nwant %+v", m, jc.q, w, got, want)
				}
			}
		}
	})
}
