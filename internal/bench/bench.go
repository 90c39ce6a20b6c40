// Package bench regenerates the paper's evaluation tables (Tables 2–9;
// Table 1 is notation and Figures 1–8 are illustrative diagrams, so the
// tables are the complete set of reported measurements). Each TableN
// function reproduces one table's workload, sweep and columns on the
// simulated cluster, scaled down from the paper's millions of
// rectangles by a configurable unit so a single machine regenerates the
// series in minutes.
//
// The absolute numbers differ from the paper (a 16-node Hadoop cluster
// vs an in-process simulation) — the reproduction target is the shape:
// which method wins each row, by roughly what factor, and how the
// trends move along each sweep. See EXPERIMENTS.md for the recorded
// comparison.
package bench

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/metrics"
	"mwsjoin/internal/profile"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
	"mwsjoin/internal/trace"
)

// Config tunes a harness run.
type Config struct {
	// Unit is the number of rectangles standing in for one paper
	// "million" (the tables sweep nI = 1..5 in these units). Default
	// 20,000, overridable with the MWSJ_SCALE environment variable.
	Unit int
	// Seed drives all data generation.
	Seed uint64
	// Reducers is the reducer count (default 64, the paper's 8×8).
	Reducers int
	// SkipSlow skips the configurations the paper itself timed out
	// (All-Replicate beyond nI=2, e.g.) plus Cascade on the largest
	// rows; used to keep `go test -bench` quick.
	SkipSlow bool
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// TraceDir, when non-empty, records every measured cell with a
	// tracer and writes two files per cell into the directory (created
	// if missing): <table>-<row>-<method>.json (the Chrome trace) and
	// .txt (the profile text).
	TraceDir string

	// traceTable is the id stamped into trace filenames; each TableN
	// sets it on its private copy.
	traceTable string
}

// DefaultUnit is the rectangles-per-paper-million scale.
const DefaultUnit = 20_000

func (c Config) withDefaults() Config {
	if c.Unit <= 0 {
		c.Unit = DefaultUnit
		if env := os.Getenv("MWSJ_SCALE"); env != "" {
			if v, err := strconv.Atoi(env); err == nil && v > 0 {
				c.Unit = v
			}
		}
	}
	if c.Seed == 0 {
		c.Seed = 2013
	}
	if c.Reducers <= 0 {
		c.Reducers = 64
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// scale returns the density-preserving scale factor √(Unit / 1M): the
// space's side length shrinks by this factor while rectangle dimensions
// and range parameters keep the paper's absolute values, so the space
// AREA shrinks proportionally to the rectangle count. Coverage fraction
// and per-rectangle join degrees then match the paper's workloads
// exactly, which is what determines output-size growth and the method
// ordering. (The 8×8 reducer cells shrink with the space, so the
// boundary-crossing fraction is higher than on the full-size workload —
// C-Rep marks relatively more rectangles here than in the paper, a
// conservative distortion noted in EXPERIMENTS.md.)
func (c Config) scale() float64 {
	return math.Sqrt(float64(c.Unit) / 1e6)
}

// Simulated-cluster cost model: the in-process engine makes DFS
// materialisation and shuffling almost free in wall-clock terms, while
// on the paper's 2010-era 16-node Hadoop cluster both dominate (§6.4's
// argument against 2-way Cascade is exactly its DFS traffic). SimTime
// therefore charges the measured byte counters at era-realistic
// aggregate rates on top of the measured compute time, restoring the
// cost structure the paper's hh:mm columns reflect. The rates are
// deliberately conservative; EXPERIMENTS.md reports both Time and
// SimTime.
const (
	simDiskBytesPerSec = 200e6 // aggregate HDFS read+write throughput
	simNetBytesPerSec  = 125e6 // aggregate shuffle throughput (~1 GbE)
)

// Cell is one measured method on one row. The JSON tags define the
// schema of the -json report (durations serialise as nanoseconds).
type Cell struct {
	Method           spatial.Method `json:"method"`
	Time             time.Duration  `json:"time_ns"`           // measured wall time, in-process
	SimTime          time.Duration  `json:"sim_time_ns"`       // Time + modelled DFS and shuffle cost
	Replicated       int64          `json:"replicated"`        // §7.8.3 "number of rectangles replicated"
	AfterReplication int64          `json:"after_replication"` // §7.8.3 parenthesised copy count
	Pairs            int64          `json:"pairs"`             // intermediate key-value pairs, all rounds
	PairBytes        int64          `json:"pair_bytes"`        // intermediate bytes, all rounds
	DFSBytes         int64          `json:"dfs_bytes"`         // simulated DFS bytes read+written
	// Per-reducer distribution of the intermediate pair counts across
	// all rounds: quantiles plus the max/mean imbalance factor — the
	// skew view behind the paper's MaxReducerSkew column.
	ReducerPairsP50 int64   `json:"reducer_pairs_p50"`
	ReducerPairsP95 int64   `json:"reducer_pairs_p95"`
	ReducerPairsMax int64   `json:"reducer_pairs_max"`
	Imbalance       float64 `json:"imbalance"`
	// Map-side combiner traffic over all rounds: pairs entering and
	// leaving combiners. Equal counts mean the combiners never fired
	// (the expected state on well-formed inputs — the mark round's
	// dedup combiner is a pure pass-through there). Omitted for rounds
	// without a combiner.
	CombineIn  int64 `json:"combine_in,omitempty"`
	CombineOut int64 `json:"combine_out,omitempty"`
	Skipped    bool  `json:"skipped,omitempty"`
}

// Row is one sweep point of a table.
type Row struct {
	Label  string `json:"label"`
	Cells  []Cell `json:"cells"`
	Tuples int64  `json:"tuples"` // output size (identical across methods)
}

// Table is a regenerated paper table.
type Table struct {
	ID      string           `json:"id"`
	Title   string           `json:"title"`
	Query   string           `json:"query"`
	Sweep   string           `json:"sweep"`
	Methods []spatial.Method `json:"methods"`
	Rows    []Row            `json:"rows"`
	Notes   []string         `json:"notes,omitempty"`
}

// runRow executes the query with each method and fills one row.
func runRow(cfg Config, label string, q *query.Query, rels []spatial.Relation, methods []spatial.Method, skip map[spatial.Method]bool) (Row, error) {
	row := Row{Label: label}
	part, err := spatial.DefaultPartitioning(rels, cfg.Reducers)
	if err != nil {
		return row, err
	}
	for _, m := range methods {
		if skip[m] {
			row.Cells = append(row.Cells, Cell{Method: m, Skipped: true})
			cfg.logf("  %-14s %-16s skipped", label, m)
			continue
		}
		// CountOnly: dense sweep points produce 10^8 tuples; the harness
		// needs counts and costs, not materialised results.
		var tr *trace.Tracer
		if cfg.TraceDir != "" {
			tr = trace.New()
		}
		res, err := spatial.Execute(m, q, rels, spatial.Config{Part: part, CountOnly: true, Tracer: tr})
		if err != nil {
			return row, fmt.Errorf("bench: %s %v: %w", label, m, err)
		}
		if tr != nil {
			if err := writeTraces(cfg, label, q, &res.Stats, tr.Spans()); err != nil {
				return row, err
			}
		}
		var pairBytes, combineIn, combineOut int64
		// The cell's reducer-skew distribution: every reducer of every round.
		var reducerPairs metrics.Histogram
		for _, r := range res.Stats.Rounds {
			pairBytes += r.IntermediateBytes
			combineIn += r.CombineInputPairs
			combineOut += r.CombineOutputPairs
			for _, n := range r.PairsPerReducer {
				reducerPairs.Observe(n)
			}
		}
		dfsBytes := res.Stats.DFS.BytesRead + res.Stats.DFS.BytesWritten
		pairsH := reducerPairs.Snapshot()
		cell := Cell{
			Method:           m,
			Time:             res.Stats.Wall,
			SimTime:          res.Stats.Wall + simCost(dfsBytes, simDiskBytesPerSec) + simCost(pairBytes, simNetBytesPerSec),
			Replicated:       res.Stats.RectanglesReplicated,
			AfterReplication: res.Stats.RectanglesAfterReplication,
			Pairs:            res.Stats.IntermediatePairs(),
			PairBytes:        pairBytes,
			DFSBytes:         dfsBytes,
			ReducerPairsP50:  pairsH.Quantile(0.5),
			ReducerPairsP95:  pairsH.Quantile(0.95),
			ReducerPairsMax:  pairsH.Max,
			Imbalance:        pairsH.Imbalance(),
			CombineIn:        combineIn,
			CombineOut:       combineOut,
		}
		row.Cells = append(row.Cells, cell)
		row.Tuples = res.Stats.OutputTuples
		cfg.logf("  %-14s %-16s %10v (sim %v)  repl=%d (%d)  pairs=%d  tuples=%d",
			label, m, res.Stats.Wall.Round(time.Millisecond), cell.SimTime.Round(time.Millisecond),
			cell.Replicated, cell.AfterReplication, cell.Pairs, row.Tuples)
	}
	return row, nil
}

// writeTraces exports one measured cell into TraceDir as a Chrome
// trace plus the profile text.
func writeTraces(cfg Config, label string, q *query.Query, st *spatial.Stats, spans []trace.Span) error {
	if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.TraceDir,
		traceFileName(cfg.traceTable)+"-"+traceFileName(label)+"-"+traceFileName(st.Method.String()))
	for ext, write := range map[string]func(io.Writer) error{
		".json": func(w io.Writer) error { return profile.WriteChromeTrace(w, spans) },
		".txt":  profile.Build(q.String(), st, spans).WriteText,
	} {
		f, err := os.Create(base + ext)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	cfg.logf("  %-14s traces -> %s.{json,txt}", label, base)
	return nil
}

// traceFileName sanitises a label for use in a filename: anything
// outside [a-zA-Z0-9._-] becomes '-'.
func traceFileName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, s)
}

// synthetic3 builds three synthetic relations with the paper's default
// parameters density-preservingly scaled: n rectangles each in a
// (100K·s)² space with dimensions up to the paper's nominal maxDim.
func synthetic3(cfg Config, n int, maxDim float64) ([]spatial.Relation, error) {
	s := cfg.scale()
	rels := make([]spatial.Relation, 3)
	for i := range rels {
		p := dataset.PaperDefaults(n)
		p.XMax *= s
		p.YMax *= s
		p.LMax, p.BMax = maxDim, maxDim
		rel, err := dataset.SyntheticRelation(fmt.Sprintf("R%d", i+1), p, cfg.Seed+uint64(i)*101)
		if err != nil {
			return nil, err
		}
		rels[i] = rel
	}
	return rels, nil
}

// simCost converts a byte counter into modelled transfer time.
func simCost(bytes int64, rate float64) time.Duration {
	return time.Duration(float64(bytes) / rate * float64(time.Second))
}

// itemRects extracts the rectangle slice of a relation.
func itemRects(rel spatial.Relation) []geom.Rect {
	rects := make([]geom.Rect, len(rel.Items))
	for i, it := range rel.Items {
		rects[i] = it.R
	}
	return rects
}

// q2 is Q2 = R1 Ov R2 and R2 Ov R3 (§7.8.4).
func q2() *query.Query { return query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2) }

// q3 is Q3 = R1 Ra(d) R2 and R2 Ra(d) R3 (§8.1).
func q3(d float64) *query.Query { return query.New("R1", "R2", "R3").Range(0, 1, d).Range(1, 2, d) }

// q4 is Q4 = R1 Ov R2 and R2 Ra(d) R3 (§9.1).
func q4(d float64) *query.Query { return query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, d) }

// selfStar is the self-join star query over one dataset: three slots
// chained slot1–slot2–slot3 (Q2s/Q3s/Q4s).
func selfStar(p1, p2 query.Predicate) *query.Query {
	return query.New("rd1", "rd2", "rd3").On(0, 1, p1).On(1, 2, p2)
}

// Table2 regenerates Table 2: Q2, uniform synthetic data, dimensions
// ≤ 100, sweeping the dataset size nI = 1..5 units; methods 2-way
// Cascade, All-Replicate, C-Rep and C-Rep-L.
func Table2(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cfg.traceTable = "table2"
	t := &Table{
		ID:    "table2",
		Title: "Query Q2, varying the dataset size",
		Query: q2().String(),
		Sweep: "nI (units of " + strconv.Itoa(cfg.Unit) + " rectangles per relation)",
		Methods: []spatial.Method{
			spatial.Cascade, spatial.AllReplicate, spatial.ControlledReplicate, spatial.ControlledReplicateLimit,
		},
		Notes: []string{
			"paper: All-Replicate exceeded 3h from nI=3 on; it is skipped there under -short/SkipSlow",
		},
	}
	for nI := 1; nI <= 5; nI++ {
		rels, err := synthetic3(cfg, nI*cfg.Unit, 100)
		if err != nil {
			return nil, err
		}
		skip := map[spatial.Method]bool{}
		if cfg.SkipSlow && nI >= 3 {
			skip[spatial.AllReplicate] = true
		}
		row, err := runRow(cfg, fmt.Sprintf("nI=%d", nI), q2(), rels, t.Methods, skip)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table3 regenerates Table 3: Q2 with nI = 2 units, sweeping the
// maximum rectangle dimensions l_max = b_max = 100..500.
func Table3(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cfg.traceTable = "table3"
	t := &Table{
		ID:      "table3",
		Title:   "Query Q2, varying rectangle dimensions",
		Query:   q2().String(),
		Sweep:   "l_max = b_max",
		Methods: []spatial.Method{spatial.Cascade, spatial.ControlledReplicate, spatial.ControlledReplicateLimit},
	}
	for _, maxDim := range []float64{100, 200, 300, 400, 500} {
		rels, err := synthetic3(cfg, 2*cfg.Unit, maxDim)
		if err != nil {
			return nil, err
		}
		row, err := runRow(cfg, fmt.Sprintf("lmax=%g", maxDim), q2(), rels, t.Methods, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// roadsRelation builds the synthetic California road stand-in with n
// rectangles, optionally enlarged by factor k.
func roadsRelation(cfg Config, n int, k float64) spatial.Relation {
	p := dataset.DefaultCaliforniaRoads(n)
	// Shrink the space (not the real-world MBB dimensions) to preserve
	// the paper's road density at the reduced count.
	p.XMax *= cfg.scale()
	p.YMax *= cfg.scale()
	rects := dataset.CaliforniaRoads(p, cfg.Seed+7)
	if k != 1 {
		rects = dataset.EnlargeAll(rects, k)
	}
	return spatial.NewRelation("roads", rects)
}

// Table4 regenerates Table 4: the star self-join Q2s = R Ov R and
// R Ov R over California road data, sweeping the enlargement factor
// k = 1.0..2.0 (§7.8.6) with nI = 2 units.
func Table4(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cfg.traceTable = "table4"
	t := &Table{
		ID:      "table4",
		Title:   "Query Q2s, California road data (synthetic stand-in)",
		Query:   "rd1 ov rd2 and rd2 ov rd3 (self-join)",
		Sweep:   "enlargement factor k",
		Methods: []spatial.Method{spatial.Cascade, spatial.ControlledReplicate, spatial.ControlledReplicateLimit},
	}
	q := selfStar(query.Ov(), query.Ov())
	for _, k := range []float64{1.0, 1.25, 1.5, 1.75, 2.0} {
		rel := roadsRelation(cfg, 2*cfg.Unit, k)
		rels := []spatial.Relation{rel, rel, rel}
		row, err := runRow(cfg, fmt.Sprintf("k=%.2f", k), q, rels, t.Methods, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table5 regenerates Table 5: the range query Q3 with d = 100, uniform
// synthetic data, sweeping nI = 1..5 units.
func Table5(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cfg.traceTable = "table5"
	t := &Table{
		ID:      "table5",
		Title:   "Query Q3 (d=100), varying the dataset size",
		Query:   q3(100).String(),
		Sweep:   "nI (units of " + strconv.Itoa(cfg.Unit) + ")",
		Methods: []spatial.Method{spatial.Cascade, spatial.ControlledReplicate, spatial.ControlledReplicateLimit},
	}
	const d = 100.0 // the paper's absolute distance parameter
	for nI := 1; nI <= 5; nI++ {
		rels, err := synthetic3(cfg, nI*cfg.Unit, 100)
		if err != nil {
			return nil, err
		}
		skip := map[spatial.Method]bool{}
		if cfg.SkipSlow && nI >= 4 {
			skip[spatial.Cascade] = true // paper: >6h at nI=5
		}
		row, err := runRow(cfg, fmt.Sprintf("nI=%d", nI), q3(d), rels, t.Methods, skip)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table6 regenerates Table 6: Q3 with nI = 1 unit, sweeping the
// distance parameter d = 100..500.
func Table6(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cfg.traceTable = "table6"
	t := &Table{
		ID:      "table6",
		Title:   "Query Q3, varying distance parameter d",
		Query:   "R1 ra(d) R2 and R2 ra(d) R3",
		Sweep:   "d",
		Methods: []spatial.Method{spatial.ControlledReplicate, spatial.ControlledReplicateLimit},
	}
	rels, err := synthetic3(cfg, cfg.Unit, 100)
	if err != nil {
		return nil, err
	}
	for _, d := range []float64{100, 200, 300, 400, 500} {
		row, err := runRow(cfg, fmt.Sprintf("d=%g", d), q3(d), rels, t.Methods, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table7 regenerates Table 7: the range star self-join Q3s over the
// road data sampled with probability 0.5 (nI = 1 unit), sweeping
// d = 5..20.
func Table7(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cfg.traceTable = "table7"
	t := &Table{
		ID:      "table7",
		Title:   "Query Q3s, California road data (synthetic stand-in), sampled p=0.5",
		Query:   "rd1 ra(d) rd2 and rd2 ra(d) rd3 (self-join)",
		Sweep:   "d",
		Methods: []spatial.Method{spatial.Cascade, spatial.ControlledReplicate, spatial.ControlledReplicateLimit},
	}
	rects := dataset.Sample(itemRects(roadsRelation(cfg, 2*cfg.Unit, 1)), 0.5, cfg.Seed+13)
	rel := spatial.NewRelation("roads", rects)
	rels := []spatial.Relation{rel, rel, rel}
	for _, d := range []float64{5, 10, 15, 20} {
		q := selfStar(query.Ra(d), query.Ra(d))
		row, err := runRow(cfg, fmt.Sprintf("d=%g", d), q, rels, t.Methods, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table8 regenerates Table 8: the hybrid query Q4 = R1 Ov R2 and
// R2 Ra(200) R3, uniform synthetic data, sweeping nI = 1..5 units.
func Table8(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cfg.traceTable = "table8"
	t := &Table{
		ID:      "table8",
		Title:   "Query Q4 (d=200), varying the dataset size",
		Query:   q4(200).String(),
		Sweep:   "nI (units of " + strconv.Itoa(cfg.Unit) + ")",
		Methods: []spatial.Method{spatial.ControlledReplicate, spatial.ControlledReplicateLimit},
	}
	const d = 200.0 // the paper's absolute distance parameter
	for nI := 1; nI <= 5; nI++ {
		rels, err := synthetic3(cfg, nI*cfg.Unit, 100)
		if err != nil {
			return nil, err
		}
		row, err := runRow(cfg, fmt.Sprintf("nI=%d", nI), q4(d), rels, t.Methods, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table9 regenerates Table 9: the hybrid star self-join Q4s over the
// road data sampled with probability 0.5 (nI = 1 unit), sweeping
// d = 10..40.
func Table9(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cfg.traceTable = "table9"
	t := &Table{
		ID:      "table9",
		Title:   "Query Q4s, California road data (synthetic stand-in), sampled p=0.5",
		Query:   "rd1 ov rd2 and rd2 ra(d) rd3 (self-join)",
		Sweep:   "d",
		Methods: []spatial.Method{spatial.ControlledReplicate, spatial.ControlledReplicateLimit},
	}
	rects := dataset.Sample(itemRects(roadsRelation(cfg, 2*cfg.Unit, 1)), 0.5, cfg.Seed+13)
	rel := spatial.NewRelation("roads", rects)
	rels := []spatial.Relation{rel, rel, rel}
	for _, d := range []float64{10, 20, 30, 40} {
		q := selfStar(query.Ov(), query.Ra(d))
		row, err := runRow(cfg, fmt.Sprintf("d=%g", d), q, rels, t.Methods, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Tables maps table ids to their generators.
func Tables() map[string]func(Config) (*Table, error) {
	return map[string]func(Config) (*Table, error){
		"table2": Table2, "table3": Table3, "table4": Table4,
		"table5": Table5, "table6": Table6, "table7": Table7,
		"table8": Table8, "table9": Table9,
	}
}

// TableIDs lists the table ids in paper order.
func TableIDs() []string {
	return []string{"table2", "table3", "table4", "table5", "table6", "table7", "table8", "table9"}
}

// Format renders the table as aligned text in the paper's layout: one
// time column per method followed by the replication columns.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(t.ID[:1])+t.ID[1:], t.Title)
	fmt.Fprintf(&b, "query: %s   sweep: %s\n", t.Query, t.Sweep)

	header := []string{t.Sweep}
	for _, m := range t.Methods {
		header = append(header, "time(sim) "+m.String())
	}
	for _, m := range t.Methods {
		if m == spatial.Cascade || m == spatial.BruteForce {
			continue
		}
		header = append(header, "#rep "+m.String())
	}
	header = append(header, "tuples")

	rows := [][]string{header}
	for _, r := range t.Rows {
		line := []string{r.Label}
		for _, c := range r.Cells {
			if c.Skipped {
				line = append(line, "—")
			} else {
				line = append(line, fmt.Sprintf("%v (%v)",
					c.Time.Round(time.Millisecond), c.SimTime.Round(time.Millisecond)))
			}
		}
		for _, c := range r.Cells {
			if c.Method == spatial.Cascade || c.Method == spatial.BruteForce {
				continue
			}
			if c.Skipped {
				line = append(line, "—")
			} else {
				line = append(line, fmt.Sprintf("%s (%s)", compact(c.Replicated), compact(c.AfterReplication)))
			}
		}
		line = append(line, compact(r.Tuples))
		rows = append(rows, line)
	}

	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// compact renders counts the way the paper does (0.11, 7.6 — in
// fractions of a million) scaled to thousands here: plain below 10k,
// "12.3k" and "4.56M" above.
func compact(n int64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return strconv.FormatInt(n, 10)
	}
}
