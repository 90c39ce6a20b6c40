package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestMetricsServer runs the walkthrough on a small workload: the
// self-scrape must surface the run counters and the skew section must
// print the quantiles and imbalance factor.
func TestMetricsServer(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 500); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"/metrics ==",
		"spatial_runs_total 1",
		"spatial_intermediate_pairs_total",
		"mapreduce_jobs_total",
		"== reducer skew",
		"imbalance factor",
		"spatial_cell_candidates: p50=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// The quantile line carries real numbers in order p50 ≤ p95 ≤ max.
	m := regexp.MustCompile(`pairs per reducer: p50=(\d+) p95=(\d+) max=(\d+)`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no skew quantile line:\n%s", text)
	}
	if m[1] > m[3] && len(m[1]) >= len(m[3]) {
		t.Errorf("p50 %s exceeds max %s", m[1], m[3])
	}
}
