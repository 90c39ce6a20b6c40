package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mwsjoin"
)

// traceDataset writes a dataset big enough for a C-Rep run to shuffle
// a few thousand pairs.
func traceDataset(t *testing.T, name string, seed uint64, n int) string {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 1))
	rects := make([]mwsjoin.Rect, n)
	for i := range rects {
		rects[i] = mwsjoin.Rect{
			X: rng.Float64() * 1000,
			Y: rng.Float64() * 1000,
			L: rng.Float64() * 60,
			B: rng.Float64() * 60,
		}
	}
	return writeRects(t, name, rects)
}

var statRe = regexp.MustCompile(`round \d+ \(([^)]+)\): pairs=(\d+)`)

// chromeSpan is one event of a -trace-chrome file with its span
// identity read back from the args.
type chromeSpan struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Args map[string]int64 `json:"args"`
}

func (s chromeSpan) id() int64     { return s.Args["span_id"] }
func (s chromeSpan) parent() int64 { return s.Args["parent_id"] }

// TestRunTraceMatchesStats is the CLI acceptance check: -trace-chrome on
// a Controlled-Replicate query writes a trace whose span_id/parent_id
// args rebuild the run → round → job → phase tree, and whose per-job
// pair/byte counters exactly equal the Stats totals -stats prints.
func TestRunTraceMatchesStats(t *testing.T) {
	r1 := traceDataset(t, "r1.csv", 11, 150)
	r2 := traceDataset(t, "r2.csv", 12, 150)
	r3 := traceDataset(t, "r3.csv", 13, 150)
	traceFile := filepath.Join(t.TempDir(), "out.json")

	var out, errOut strings.Builder
	err := run([]string{
		"-query", "R1 ov R2 and R2 ra(40) R3",
		"-rel", "R1=" + r1, "-rel", "R2=" + r2, "-rel", "R3=" + r3,
		"-method", "c-rep", "-reducers", "16", "-quiet", "-stats",
		"-trace-chrome", traceFile,
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := mwsjoin.ValidateChromeTrace(raw); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeSpan `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	spans := doc.TraceEvents

	// Rebuild the tree: ids are unique and positive, every parent is a
	// span of the trace (or 0 for the root), and rounds and jobs nest
	// under the level above them (phases also time the run's own
	// staging, so they may sit under the run).
	byID := map[int64]chromeSpan{}
	children := map[int64][]chromeSpan{}
	for _, s := range spans {
		if _, dup := byID[s.id()]; dup || s.id() <= 0 {
			t.Fatalf("span %q has a missing or duplicate span_id: %v", s.Name, s.Args)
		}
		byID[s.id()] = s
		children[s.parent()] = append(children[s.parent()], s)
	}
	parentCat := map[string]string{"round": "run", "job": "round"}
	for _, s := range spans {
		if s.parent() == 0 {
			if s.Cat != "run" {
				t.Errorf("root span %q is a %s, want run", s.Name, s.Cat)
			}
			continue
		}
		p, ok := byID[s.parent()]
		if !ok {
			t.Fatalf("span %q names parent %d, which is not in the trace", s.Name, s.parent())
		}
		if want, ok := parentCat[s.Cat]; ok && p.Cat != want {
			t.Errorf("%s %q sits under %s %q", s.Cat, s.Name, p.Cat, p.Name)
		}
	}

	// Collect per-job pairs from the -stats report...
	statPairs := map[string]int64{}
	var statOrder []string
	for _, m := range statRe.FindAllStringSubmatch(errOut.String(), -1) {
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		statPairs[m[1]] = n
		statOrder = append(statOrder, m[1])
	}
	if len(statOrder) != 2 {
		t.Fatalf("want 2 C-Rep rounds in stats, got %v", statOrder)
	}

	// ...and compare with the job spans' counters.
	var jobOrder []string
	var total int64
	for _, s := range spans {
		if s.Cat != "job" {
			continue
		}
		jobOrder = append(jobOrder, s.Name)
		want, ok := statPairs[s.Name]
		if !ok {
			t.Errorf("job span %q missing from stats report", s.Name)
			continue
		}
		if got := s.Args["pairs"]; got != want {
			t.Errorf("job %q: trace pairs=%d, stats pairs=%d", s.Name, got, want)
		}
		if s.Args["bytes"] <= 0 {
			t.Errorf("job %q: no bytes counter in trace", s.Name)
		}
		var phases []string
		for _, c := range children[s.id()] {
			phases = append(phases, c.Name)
		}
		if !strings.Contains(fmt.Sprint(phases), "shuffle") {
			t.Errorf("job %q: no shuffle phase among %v", s.Name, phases)
		}
		total += s.Args["pairs"]
	}
	if fmt.Sprint(jobOrder) != fmt.Sprint(statOrder) {
		t.Errorf("job order: trace %v, stats %v", jobOrder, statOrder)
	}

	// The totals printed by -stats must equal the span sums.
	wantTotal := statLine(t, errOut.String(), "intermediate pairs:")
	if total != wantTotal {
		t.Errorf("summed trace pairs=%d, stats total=%d", total, wantTotal)
	}
	wantW := statLine(t, errOut.String(), "dfs bytes written:")
	var traceW int64
	for _, s := range spans {
		traceW += s.Args["dfs_bytes_written"]
	}
	if traceW != wantW {
		t.Errorf("summed trace dfs writes=%d, stats=%d", traceW, wantW)
	}
}

// statLine extracts the integer value of one "label:  N" stats line.
func statLine(t *testing.T, report, label string) int64 {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), label); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				t.Fatalf("bad stats line %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("stats report has no %q line:\n%s", label, report)
	return 0
}

// TestRunTraceFileError: an unwritable trace path surfaces as an error.
func TestRunTraceFileError(t *testing.T) {
	r := writeRects(t, "r.csv", []mwsjoin.Rect{{X: 0, Y: 10, L: 4, B: 4}})
	var out, errOut strings.Builder
	err := run([]string{
		"-query", "A ov B", "-rel", "A=" + r, "-rel", "B=" + r,
		"-reducers", "4", "-allow-self-pairs", "-quiet",
		"-trace-chrome", filepath.Join(t.TempDir(), "no", "such", "dir", "x.json"),
	}, &out, &errOut)
	if err == nil {
		t.Fatal("want error for unwritable trace path")
	}
}
