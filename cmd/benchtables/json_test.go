package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mwsjoin/internal/bench"
	"mwsjoin/internal/spatial"
)

func TestRunJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out strings.Builder
	err := run([]string{"-table", "table6", "-unit", "250", "-q", "-json", path}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := bench.ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unit != 250 || rep.Seed != 2013 || rep.Reducers != 64 {
		t.Errorf("report config = %d/%d/%d", rep.Unit, rep.Seed, rep.Reducers)
	}
	if !strings.Contains(rep.Regenerate, "-unit 250") || !strings.Contains(rep.Regenerate, "-json") {
		t.Errorf("regenerate command incomplete: %q", rep.Regenerate)
	}
	tab := rep.Table("table6")
	if tab == nil {
		t.Fatal("report missing table6")
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("table6 has %d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for _, c := range row.Cells {
			if c.Skipped {
				continue
			}
			// Method names survived the JSON round trip and the skew
			// columns are populated and internally consistent.
			if c.Method != spatial.ControlledReplicate && c.Method != spatial.ControlledReplicateLimit {
				t.Errorf("row %s: unexpected method %v", row.Label, c.Method)
			}
			if c.Pairs <= 0 {
				t.Errorf("row %s %v: no pairs", row.Label, c.Method)
			}
			if c.ReducerPairsMax < c.ReducerPairsP95 || c.ReducerPairsP95 < c.ReducerPairsP50 {
				t.Errorf("row %s %v: quantiles out of order: p50=%d p95=%d max=%d",
					row.Label, c.Method, c.ReducerPairsP50, c.ReducerPairsP95, c.ReducerPairsMax)
			}
			if c.Imbalance < 1 {
				t.Errorf("row %s %v: imbalance %v < 1 (max cannot be below mean)",
					row.Label, c.Method, c.Imbalance)
			}
		}
	}
}

// committedTable2 reads Table 2 of the committed BENCH_PR2.json.
func committedTable2(t *testing.T) (*bench.Report, *bench.Table) {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "BENCH_PR2.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := bench.ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.Table("table2")
	if tab == nil {
		t.Fatal("BENCH_PR2.json has no table2")
	}
	return rep, tab
}

// TestBenchPR2Ordering guards the committed report: on every Table 2
// row where both baselines ran, Controlled-Replicate must shuffle no
// more intermediate pairs (and ship no more rectangle copies) than
// All-Replicate — the paper's headline ordering.
func TestBenchPR2Ordering(t *testing.T) {
	_, tab := committedTable2(t)
	if len(tab.Rows) != 5 {
		t.Fatalf("table2 has %d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		cells := map[spatial.Method]bench.Cell{}
		for _, c := range row.Cells {
			if !c.Skipped {
				cells[c.Method] = c
			}
		}
		all, okA := cells[spatial.AllReplicate]
		crep, okC := cells[spatial.ControlledReplicate]
		if !okA || !okC {
			continue
		}
		if crep.Pairs > all.Pairs {
			t.Errorf("row %s: C-Rep shuffles %d pairs, more than All-Rep's %d",
				row.Label, crep.Pairs, all.Pairs)
		}
		if crep.AfterReplication > all.AfterReplication {
			t.Errorf("row %s: C-Rep ships %d copies, more than All-Rep's %d",
				row.Label, crep.AfterReplication, all.AfterReplication)
		}
	}
}

// TestBenchPR3MatchesPR2 holds the engine to the published Table 2: the
// table regenerated now, at the unit, seed and reducer count of the
// committed BENCH_PR2.json (written before the sorted-run shuffle and
// every later engine change), must agree with it cell for
// cell on each deterministic counter — intermediate pairs, rectangles
// replicated, copies after replication — and on the output tuple
// counts.
func TestBenchPR3MatchesPR2(t *testing.T) {
	rep, want := committedTable2(t)
	got, err := bench.Table2(bench.Config{Unit: rep.Unit, Seed: rep.Seed, Reducers: rep.Reducers})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("row count changed: %d vs %d", len(want.Rows), len(got.Rows))
	}
	for i, rowW := range want.Rows {
		rowG := got.Rows[i]
		if rowW.Label != rowG.Label {
			t.Fatalf("row %d label %q vs %q", i, rowW.Label, rowG.Label)
		}
		if rowW.Tuples != rowG.Tuples {
			t.Errorf("row %s: tuples %d -> %d", rowW.Label, rowW.Tuples, rowG.Tuples)
		}
		if len(rowW.Cells) != len(rowG.Cells) {
			t.Fatalf("row %s cell count changed", rowW.Label)
		}
		for j, cw := range rowW.Cells {
			cg := rowG.Cells[j]
			if cw.Method != cg.Method || cw.Skipped != cg.Skipped {
				t.Fatalf("row %s cell %d identity changed", rowW.Label, j)
			}
			if cw.Skipped {
				continue
			}
			if cw.Pairs != cg.Pairs {
				t.Errorf("row %s %v: pairs %d -> %d", rowW.Label, cw.Method, cw.Pairs, cg.Pairs)
			}
			if cw.Replicated != cg.Replicated {
				t.Errorf("row %s %v: replicated %d -> %d", rowW.Label, cw.Method, cw.Replicated, cg.Replicated)
			}
			if cw.AfterReplication != cg.AfterReplication {
				t.Errorf("row %s %v: after_replication %d -> %d", rowW.Label, cw.Method, cw.AfterReplication, cg.AfterReplication)
			}
		}
	}
}
