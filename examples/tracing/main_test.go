package main

import (
	"strings"
	"testing"
)

// TestTracing runs the walkthrough on a small workload: the profile must
// show both rounds with their phases and skew, the Chrome trace must
// validate, and each round's job span must be timed beside its Stats.
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
		"job c-rep-mark",
		"job c-rep-join",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "stats pairs="); n != 2 {
		t.Errorf("%d job lines, want one per round (2):\n%s", n, text)
	}
}
