// Command benchtables regenerates the paper's evaluation tables
// (Tables 2–9) on the simulated cluster and prints them in the paper's
// layout. The dataset sizes are scaled down from the paper's millions
// by -unit (rectangles per paper-"million"); the density of every
// workload is preserved, so the method ordering and trends are directly
// comparable to the published tables.
//
// Usage:
//
//	benchtables                     # all tables at the default scale
//	benchtables -table table2       # one table
//	benchtables -unit 50000         # closer to paper scale (slower)
//	benchtables -md -o results.md   # markdown output for EXPERIMENTS.md
//	benchtables -json BENCH.json    # machine-readable report with skew quantiles
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mwsjoin/internal/bench"
	"mwsjoin/internal/spatial"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table    = fs.String("table", "all", "table to regenerate: all | table2 ... table9")
		unit     = fs.Int("unit", 0, "rectangles per paper-'million' (default 20000, env MWSJ_SCALE)")
		seed     = fs.Uint64("seed", 2013, "workload seed")
		reducers = fs.Int("reducers", 64, "reducer count (perfect square)")
		skipSlow = fs.Bool("skip-slow", false, "skip configurations the paper itself timed out")
		md       = fs.Bool("md", false, "emit markdown tables")
		outPath  = fs.String("o", "", "also write the output to this file")
		quiet    = fs.Bool("q", false, "suppress per-run progress on stderr")
		traceDir = fs.String("tracedir", "", "write per-cell trace files into this directory: <table>-<row>-<method>.json (Chrome trace) and .txt (profile text)")
		jsonPath = fs.String("json", "", "write the regenerated tables as a JSON report (rows, per-method stats, reducer-skew quantiles) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := bench.Config{Unit: *unit, Seed: *seed, Reducers: *reducers, SkipSlow: *skipSlow, TraceDir: *traceDir}
	if !*quiet {
		cfg.Log = stderr
	}

	ids := bench.TableIDs()
	if *table != "all" {
		if bench.Tables()[*table] == nil {
			return fmt.Errorf("unknown table %q (want all or %s)", *table, strings.Join(ids, ", "))
		}
		ids = []string{*table}
	}

	var out strings.Builder
	var tables []*bench.Table
	start := time.Now()
	for _, id := range ids {
		if !*quiet {
			fmt.Fprintf(stderr, "== regenerating %s ==\n", id)
		}
		t, err := bench.Tables()[id](cfg)
		if err != nil {
			return err
		}
		tables = append(tables, t)
		if *md {
			out.WriteString(markdown(t))
		} else {
			out.WriteString(t.Format())
		}
		out.WriteString("\n")
	}
	if !*quiet {
		fmt.Fprintf(stderr, "== done in %v ==\n", time.Since(start).Round(time.Second))
	}

	if _, err := io.WriteString(stdout, out.String()); err != nil {
		return err
	}
	if *jsonPath != "" {
		if err := writeReport(cfg, tables, *table, *jsonPath); err != nil {
			return err
		}
	}
	if *outPath != "" {
		return os.WriteFile(*outPath, []byte(out.String()), 0o644)
	}
	return nil
}

// writeReport writes the JSON report, embedding the exact command that
// regenerates it. All count columns are deterministic in
// unit/seed/reducers; only the measured time columns vary per host.
func writeReport(cfg bench.Config, tables []*bench.Table, tableSel, path string) error {
	rep := bench.NewReport(cfg, "", tables)
	rep.Regenerate = fmt.Sprintf("go run ./cmd/benchtables -table %s -unit %d -seed %d -reducers %d -q -json %s",
		tableSel, rep.Unit, rep.Seed, rep.Reducers, path)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// markdown renders a table as a GitHub-flavoured markdown table.
func markdown(t *bench.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", strings.ToUpper(t.ID[:1])+t.ID[1:], t.Title)
	fmt.Fprintf(&b, "query `%s`, sweep %s\n\n", t.Query, t.Sweep)

	header := []string{t.Sweep}
	for _, m := range t.Methods {
		header = append(header, "time (sim) "+m.String())
	}
	for _, m := range t.Methods {
		if m == spatial.Cascade || m == spatial.BruteForce {
			continue
		}
		header = append(header, "#rep "+m.String()+" (after)")
	}
	header = append(header, "tuples")
	fmt.Fprintf(&b, "| %s |\n", strings.Join(header, " | "))
	fmt.Fprintf(&b, "|%s\n", strings.Repeat("---|", len(header)))

	for _, r := range t.Rows {
		cells := []string{r.Label}
		for _, c := range r.Cells {
			if c.Skipped {
				cells = append(cells, "—")
			} else {
				cells = append(cells, fmt.Sprintf("%v (%v)",
					c.Time.Round(time.Millisecond), c.SimTime.Round(time.Millisecond)))
			}
		}
		for _, c := range r.Cells {
			if c.Method == spatial.Cascade || c.Method == spatial.BruteForce {
				continue
			}
			if c.Skipped {
				cells = append(cells, "—")
			} else {
				cells = append(cells, fmt.Sprintf("%d (%d)", c.Replicated, c.AfterReplication))
			}
		}
		cells = append(cells, fmt.Sprint(r.Tuples))
		fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n_%s_\n", n)
	}
	b.WriteString("\n")
	return b.String()
}
