package main

import (
	"fmt"
	"strings"
	"testing"

	"mwsjoin"
)

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
