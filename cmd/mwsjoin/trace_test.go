package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
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
// args rebuild the run → round → job → phase tree, whose job spans are
// the rounds -stats prints, in order, each with a shuffle phase, and
// whose events carry no counts — those are the Stats -stats prints.
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
		if len(s.Args) != 2 {
			t.Errorf("span %q args = %v, want span_id and parent_id only", s.Name, s.Args)
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

	// The -stats report's rounds, in order...
	var statOrder []string
	for _, m := range statRe.FindAllStringSubmatch(errOut.String(), -1) {
		statOrder = append(statOrder, m[1])
	}
	if len(statOrder) != 2 {
		t.Fatalf("want 2 C-Rep rounds in stats, got %v", statOrder)
	}

	// ...are the job spans, each timing its shuffle.
	var jobOrder []string
	for _, s := range spans {
		if s.Cat != "job" {
			continue
		}
		jobOrder = append(jobOrder, s.Name)
		var phases []string
		for _, c := range children[s.id()] {
			phases = append(phases, c.Name)
		}
		if !strings.Contains(fmt.Sprint(phases), "shuffle") {
			t.Errorf("job %q: no shuffle phase among %v", s.Name, phases)
		}
	}
	if fmt.Sprint(jobOrder) != fmt.Sprint(statOrder) {
		t.Errorf("job order: trace %v, stats %v", jobOrder, statOrder)
	}
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
