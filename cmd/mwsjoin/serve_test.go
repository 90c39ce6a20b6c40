package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"mwsjoin"
)

// scrapeCounters GETs a Prometheus text endpoint and returns the plain
// (unlabelled) samples by name.
func scrapeCounters(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue
		}
		out[name] = n
	}
	return out
}

// denseRects builds a deterministic dataset dense enough that a 3-way
// self-join chain produces tuples on a small reducer grid.
func denseRects(n int) []mwsjoin.Rect {
	rects := make([]mwsjoin.Rect, n)
	for i := range rects {
		rects[i] = mwsjoin.Rect{
			X: float64((i * 37) % 200),
			Y: float64((i*53)%200) + 20,
			L: 15, B: 15,
		}
	}
	return rects
}

// TestServeSmoke runs the CLI with -serve and asserts, while the server
// is still up, that the scraped /metrics counters equal the run's flat
// Stats — the live view and the post-hoc view cannot disagree.
func TestServeSmoke(t *testing.T) {
	path := writeRects(t, "r.csv", denseRects(120))

	var scraped map[string]int64
	var res *mwsjoin.Result
	testAfterRun = func(addr string, r *mwsjoin.Result) {
		if addr == "" {
			t.Fatal("no bound -serve address reached the hook")
		}
		scraped = scrapeCounters(t, "http://"+addr+"/metrics")
		res = r
	}
	defer func() { testAfterRun = nil }()

	var out, errOut strings.Builder
	err := run([]string{
		"-query", "a ov b and b ov c",
		"-rel", "a=" + path, "-rel", "b=" + path, "-rel", "c=" + path,
		"-method", "c-rep", "-reducers", "16",
		"-quiet", "-serve", "127.0.0.1:0",
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || scraped == nil {
		t.Fatal("testAfterRun hook was not invoked")
	}
	if !strings.Contains(errOut.String(), "serving metrics on http://") {
		t.Errorf("bound address not announced:\n%s", errOut.String())
	}

	s := res.Stats
	checks := map[string]int64{
		"spatial_runs_total":                  1,
		"spatial_output_tuples_total":         s.OutputTuples,
		"spatial_intermediate_pairs_total":    s.IntermediatePairs(),
		"spatial_rectangles_replicated_total": s.RectanglesReplicated,
		"spatial_rectangle_copies_total":      s.RectanglesAfterReplication,
		"mapreduce_jobs_total":                int64(len(s.Rounds)),
		"mapreduce_intermediate_pairs_total":  s.IntermediatePairs(),
	}
	for name, want := range checks {
		if got, ok := scraped[name]; !ok {
			t.Errorf("/metrics missing %s", name)
		} else if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if s.OutputTuples == 0 || s.IntermediatePairs() == 0 {
		t.Fatalf("degenerate run (tuples=%d pairs=%d); the equality checks prove nothing",
			s.OutputTuples, s.IntermediatePairs())
	}
}

// TestExplainEndToEnd checks the -explain table: one row per map-reduce
// method, with predicted and actual figures and relative errors.
func TestExplainEndToEnd(t *testing.T) {
	path := writeRects(t, "r.csv", denseRects(80))

	var out, errOut strings.Builder
	err := run([]string{
		"-query", "a ov b and b ov c",
		"-rel", "a=" + path, "-rel", "b=" + path, "-rel", "c=" + path,
		"-explain", "-reducers", "16",
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, m := range explainMethods {
		if !strings.Contains(got, fmt.Sprint(m)) {
			t.Errorf("-explain table missing method %v:\n%s", m, got)
		}
	}
	for _, col := range []string{"intermediate pairs", "rel err", "output tuples", "%"} {
		if !strings.Contains(got, col) {
			t.Errorf("-explain table missing %q:\n%s", col, got)
		}
	}
	// Every row must carry a computed relative error for the pairs
	// column (the actuals of these inputs are non-zero).
	for _, line := range strings.Split(strings.TrimSpace(got), "\n")[2:] {
		if !strings.Contains(line, "%") {
			t.Errorf("row without relative error: %q", line)
		}
	}
}
