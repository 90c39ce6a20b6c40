package main

import (
	"strings"
	"testing"
)

// TestTracing runs the walkthrough on a small workload: the profile must
// show both rounds with their phases and skew, the Chrome trace must
// validate, and every job's counters must match Stats.
func TestTracing(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 400); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"── profile ──",
		"mark",
		"join",
		"shuffle",
		"skew=",
		"Chrome trace",
		"match=true",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "match=false") {
		t.Errorf("a job span disagreed with Stats:\n%s", text)
	}
}
