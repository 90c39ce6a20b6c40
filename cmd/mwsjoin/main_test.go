package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mwsjoin"
)

// writeRects saves a tiny dataset and returns its path.
func writeRects(t *testing.T, name string, rects []mwsjoin.Rect) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := mwsjoin.WriteRelationFile(path, rects); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEndToEnd(t *testing.T) {
	r1 := writeRects(t, "r1.csv", []mwsjoin.Rect{
		{X: 0, Y: 10, L: 4, B: 4},
		{X: 50, Y: 50, L: 2, B: 2},
	})
	r2 := writeRects(t, "r2.csv", []mwsjoin.Rect{
		{X: 3, Y: 9, L: 4, B: 4},
	})

	var out, errOut strings.Builder
	err := run([]string{
		"-query", "A ov B",
		"-rel", "A=" + r1, "-rel", "B=" + r2,
		"-method", "c-rep-l", "-reducers", "4", "-stats",
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "0\t0" {
		t.Errorf("tuples = %q, want %q", got, "0\t0")
	}
	if !strings.Contains(errOut.String(), "output tuples:           1") {
		t.Errorf("stats output missing tuple count:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "round 1") {
		t.Errorf("stats output missing round breakdown:\n%s", errOut.String())
	}
}

func TestRunSelfJoinSharedFile(t *testing.T) {
	roads := writeRects(t, "roads.csv", []mwsjoin.Rect{
		{X: 0, Y: 10, L: 5, B: 5},
		{X: 4, Y: 9, L: 5, B: 5},
		{X: 8, Y: 8, L: 5, B: 5},
	})
	var out, errOut strings.Builder
	err := run([]string{
		"-query", "a ov b and b ov c",
		"-rel", "a=" + roads, "-rel", "b=" + roads, "-rel", "c=" + roads,
		"-method", "brute-force", "-reducers", "4",
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	// Chain of three overlapping roads: distinct-triple matches only.
	lines := strings.Fields(strings.ReplaceAll(strings.TrimSpace(out.String()), "\t", ","))
	want := map[string]bool{"0,1,2": true, "2,1,0": true}
	if len(lines) != len(want) {
		t.Fatalf("tuples = %v, want %v", lines, want)
	}
	for _, l := range lines {
		if !want[l] {
			t.Errorf("unexpected tuple %q", l)
		}
	}
}

func TestRunQuiet(t *testing.T) {
	r := writeRects(t, "r.csv", []mwsjoin.Rect{{X: 0, Y: 10, L: 4, B: 4}})
	var out, errOut strings.Builder
	err := run([]string{
		"-query", "A ov B", "-rel", "A=" + r, "-rel", "B=" + r,
		"-quiet", "-stats", "-reducers", "4", "-allow-self-pairs",
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "" {
		t.Errorf("quiet mode printed tuples: %q", out.String())
	}
	if !strings.Contains(errOut.String(), "output tuples:           1") {
		t.Errorf("stats missing:\n%s", errOut.String())
	}
}

func TestRunErrors(t *testing.T) {
	r := writeRects(t, "r.csv", []mwsjoin.Rect{{X: 0, Y: 10, L: 4, B: 4}})
	cases := [][]string{
		{},                                     // missing query
		{"-query", "A ov"},                     // bad query
		{"-query", "A ov B", "-rel", "A=" + r}, // unbound slot B
		{"-query", "A ov B", "-rel", "A=" + r, "-rel", "B=/nope/missing.csv"},
		{"-query", "A ov B", "-rel", "A=" + r, "-rel", "B=" + r, "-method", "warp"},
		{"-query", "A ov B", "-rel", "A=" + r, "-rel", "B=" + r, "-reducers", "7"},
		{"-query", "A ov B", "-rel", "bogus"},              // malformed binding
		{"-query", "A ov B", "-rel", "A=x", "-rel", "A=y"}, // duplicate binding
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("run(%v) unexpectedly succeeded", args)
		}
	}
}

// TestTimeoutFlag checks -timeout rides the cooperative cancellation:
// an expired deadline aborts the run with an error classifiable as
// context.DeadlineExceeded (exit status 3 in main), while ordinary
// failures are not misclassified as timeouts.
func TestTimeoutFlag(t *testing.T) {
	r := writeRects(t, "r.csv", []mwsjoin.Rect{
		{X: 0, Y: 10, L: 4, B: 4},
		{X: 2, Y: 9, L: 4, B: 4},
	})
	base := []string{"-query", "A ov B", "-rel", "A=" + r, "-rel", "B=" + r, "-reducers", "4"}

	var out, errOut strings.Builder
	err := run(append(base, "-timeout", "1ns"), &out, &errOut)
	if err == nil {
		t.Fatal("run with an expired -timeout succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout error %v is not classifiable as context.DeadlineExceeded", err)
	}
	if out.String() != "" {
		t.Errorf("timed-out run printed tuples: %q", out.String())
	}

	// A generous timeout must not interfere with a successful run.
	out.Reset()
	errOut.Reset()
	if err := run(append(base, "-timeout", "1m"), &out, &errOut); err != nil {
		t.Fatalf("run with an ample -timeout: %v", err)
	}
	if strings.TrimSpace(out.String()) == "" {
		t.Error("run with an ample -timeout produced no tuples")
	}

	// A plain failure (unknown method) is distinguishable from a timeout.
	err = run([]string{"-query", "A ov B", "-rel", "A=" + r, "-rel", "B=" + r, "-method", "warp", "-timeout", "1m"}, &out, &errOut)
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("failure error %v misclassified", err)
	}

	// -explain honours the timeout too.
	err = run(append(append([]string{}, base...), "-explain", "-timeout", "1ns"), &out, &errOut)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("-explain with an expired -timeout: %v", err)
	}
}

// TestProfileFlags drives the observability flags end to end: -profile
// writes the text profile to a file or, as "-", to stderr, and
// -trace-chrome a schema-valid Chrome trace, without changing a tuple.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	r1 := writeRects(t, "r1.csv", []mwsjoin.Rect{
		{X: 0, Y: 10, L: 4, B: 4},
		{X: 3, Y: 9, L: 4, B: 4},
		{X: 50, Y: 50, L: 2, B: 2},
	})
	r2 := writeRects(t, "r2.csv", []mwsjoin.Rect{
		{X: 2, Y: 9, L: 4, B: 4},
		{X: 49, Y: 49, L: 4, B: 4},
	})
	profPath := filepath.Join(dir, "profile.txt")
	chromePath := filepath.Join(dir, "trace.json")
	base := []string{"-query", "A ov B", "-rel", "A=" + r1, "-rel", "B=" + r2, "-reducers", "4"}

	var baseline, out, errOut strings.Builder
	if err := run(base, &baseline, &errOut); err != nil {
		t.Fatal(err)
	}
	err := run(append(append([]string{}, base...),
		"-profile", profPath, "-trace-chrome", chromePath), &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != baseline.String() {
		t.Errorf("-profile/-trace-chrome changed the tuples:\n got %q\nwant %q", out.String(), baseline.String())
	}

	prof, err := os.ReadFile(profPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`profile c-rep-l "A ov B"`, "round 1", "map", "shuffle", "reduce", "dfs"} {
		if !strings.Contains(string(prof), want) {
			t.Errorf("-profile output missing %q:\n%s", want, prof)
		}
	}
	chrome, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := mwsjoin.ValidateChromeTrace(chrome); err != nil {
		t.Errorf("-trace-chrome output fails schema validation: %v", err)
	}

	// -profile - goes to stderr.
	errOut.Reset()
	if err := run(append(append([]string{}, base...), "-quiet", "-profile", "-"), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), `profile c-rep-l "A ov B"`) {
		t.Errorf("stderr missing the inline profile:\n%s", errOut.String())
	}
}

// TestRunAutoMethod checks -method auto: the planner picks a plan, the
// run produces exactly the tuples an explicit method produces, and the
// chosen plan is announced on stderr.
func TestRunAutoMethod(t *testing.T) {
	roads := writeRects(t, "roads.csv", []mwsjoin.Rect{
		{X: 0, Y: 10, L: 5, B: 5},
		{X: 4, Y: 9, L: 5, B: 5},
		{X: 8, Y: 8, L: 5, B: 5},
		{X: 40, Y: 45, L: 3, B: 3},
	})
	args := []string{
		"-query", "a ov b and b ov c",
		"-rel", "a=" + roads, "-rel", "b=" + roads, "-rel", "c=" + roads,
	}

	var want strings.Builder
	if err := run(append(append([]string{}, args...), "-method", "c-rep-l"), &want, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	var out, errOut strings.Builder
	err := run(append(append([]string{}, args...), "-method", "auto"), &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Errorf("-method auto tuples differ from explicit method:\n got %q\nwant %q", out.String(), want.String())
	}
	if !strings.Contains(errOut.String(), "planner:") {
		t.Errorf("stderr missing planner announcement:\n%s", errOut.String())
	}
}

// TestExplainPlanFlag checks -explain-plan prints the grid and the
// candidate table without executing, marks the pick, ranks one row per
// method on the grid -partition/-reducers select, and that an explicit
// -method narrows the table to that method.
func TestExplainPlanFlag(t *testing.T) {
	r := writeRects(t, "r.csv", []mwsjoin.Rect{
		{X: 0, Y: 10, L: 4, B: 4},
		{X: 3, Y: 9, L: 4, B: 4},
		{X: 50, Y: 50, L: 2, B: 2},
	})
	args := []string{"-query", "A ov B", "-rel", "A=" + r, "-rel", "B=" + r}

	var out, errOut strings.Builder
	if err := run(append(append([]string{}, args...), "-explain-plan"), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	table := out.String()
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 6 {
		t.Fatalf("want the grid, the header and one row per method:\n%s", table)
	}
	if !strings.HasPrefix(lines[0], "grid: uniform/64 (64 cells)") {
		t.Errorf("default grid line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "pick") || !strings.Contains(lines[1], "cost") {
		t.Errorf("missing table header:\n%s", table)
	}
	if !strings.HasPrefix(lines[2], "*") {
		t.Errorf("first candidate row not marked as the pick:\n%s", table)
	}
	for _, m := range []string{"2-way-cascade", "all-replicate", "c-rep", "c-rep-l"} {
		if !strings.Contains(table, m) {
			t.Errorf("full table missing method %s:\n%s", m, table)
		}
	}

	// -partition and -reducers choose the grid, -method the one row.
	out.Reset()
	err := run(append(append([]string{}, args...),
		"-explain-plan", "-method", "all-replicate", "-partition", "adaptive", "-reducers", "7"), &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	pinned := out.String()
	if strings.Contains(pinned, "c-rep") || strings.Contains(pinned, "cascade") {
		t.Errorf("pinned -method table still lists other methods:\n%s", pinned)
	}
	rows := strings.Split(strings.TrimSpace(pinned), "\n")
	if len(rows) != 3 || !strings.HasPrefix(rows[0], "grid: adaptive/7 (") {
		t.Errorf("want the adaptive/7 grid line, the header and 1 row:\n%s", pinned)
	}
}
