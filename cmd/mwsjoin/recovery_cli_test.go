package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mwsjoin"
)

// TestKillResumeRoundTrip drives the full CLI recovery workflow: a run
// killed at a job boundary saves a checkpoint snapshot and exits
// non-zero with resume guidance; re-running with -resume completes it
// with output identical to an unkilled run, charging only the
// documented recovery cost.
func TestKillResumeRoundTrip(t *testing.T) {
	path := writeRects(t, "r.csv", denseRects(120))
	chk := filepath.Join(t.TempDir(), "run.chk")
	args := func(extra ...string) []string {
		return append([]string{
			"-query", "a ov b and b ov c",
			"-rel", "a=" + path, "-rel", "b=" + path, "-rel", "c=" + path,
			"-method", "c-rep", "-reducers", "16",
		}, extra...)
	}

	var cleanOut, cleanErr strings.Builder
	if err := run(args(), &cleanOut, &cleanErr); err != nil {
		t.Fatal(err)
	}

	// Kill before job 1 (the join round; job 0 is the mark round).
	var out, errOut strings.Builder
	err := run(args("-fail-job", "1", "-checkpoint", chk), &out, &errOut)
	var killed *mwsjoin.ChainKilledError
	if !errors.As(err, &killed) {
		t.Fatalf("killed run: err = %v, want ChainKilledError", err)
	}
	if killed.Job != 1 {
		t.Errorf("killed before job %d, want 1", killed.Job)
	}
	if !strings.Contains(errOut.String(), "-resume") {
		t.Errorf("kill output lacks resume guidance:\n%s", errOut.String())
	}
	if _, err := os.Stat(chk); err != nil {
		t.Fatalf("checkpoint snapshot not saved: %v", err)
	}

	var resOut, resErr strings.Builder
	if err := run(args("-resume", "-checkpoint", chk, "-stats"), &resOut, &resErr); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resOut.String() != cleanOut.String() {
		t.Error("resumed tuples differ from the clean run's")
	}
	if !strings.Contains(resErr.String(), "chain jobs run/resumed:  1/1") {
		t.Errorf("resume stats lack the recovery accounting:\n%s", resErr.String())
	}
	if !strings.Contains(resErr.String(), "checkpoint bytes w/r:") {
		t.Errorf("resume stats lack the checkpoint byte counters:\n%s", resErr.String())
	}
}

// TestResumeRequiresCheckpoint pins the flag-validation errors of the
// recovery flags.
func TestResumeRequiresCheckpoint(t *testing.T) {
	var out, errOut strings.Builder
	err := run([]string{"-query", "a ov b", "-resume"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint") {
		t.Errorf("-resume without -checkpoint: err = %v", err)
	}
}
