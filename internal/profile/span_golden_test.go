package profile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
	"mwsjoin/internal/trace"
)

// The span golden pins what a traced execution yields beside its
// tuples: the normalized profile and the skeleton of the span tree (ID,
// parent, kind and name of every span), for the four map-reduce methods
// fault-free, under injected task failures, and resumed after a kill
// before their last job. It was written on the commit whose spans still
// carried a copy of the Stats counters, and is frozen: the timeline and
// the profile built from Stats must reproduce it byte for byte.
//
// MWSJ_WRITE_SPAN_GOLDEN=1 rewrites the file from the current code,
// which is only meaningful on a commit whose span tree is the reference.

const spanGoldenFile = "testdata/span_golden.json"

// spanGoldenCase is one traced execution of the golden.
type spanGoldenCase struct {
	Case    string          `json:"case"`
	Profile json.RawMessage `json:"profile"`
	Spans   []string        `json:"spans"`
}

// spanSkeleton renders a span snapshot without its times: one
// "id parent kind name" line per span, in ID order.
func spanSkeleton(spans []trace.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = fmt.Sprintf("%d %d %s %s", s.ID, s.Parent, s.Kind, s.Name)
	}
	return out
}

// spanGoldenRuns executes the golden's cases on goldenRelations.
func spanGoldenRuns(t *testing.T) []spanGoldenCase {
	t.Helper()
	rels := goldenRelations(t)
	q, err := query.Parse("a ov b and b ra(20) c")
	if err != nil {
		t.Fatal(err)
	}
	part, err := spatial.DefaultPartitioning(rels, 16)
	if err != nil {
		t.Fatal(err)
	}
	base := spatial.Config{Part: part, NumMappers: 3, Parallelism: 2}
	traced := func(name string, m spatial.Method, cfg spatial.Config) spanGoldenCase {
		t.Helper()
		tr := trace.New()
		cfg.Tracer = tr
		res, err := spatial.Execute(m, q, rels, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := json.Marshal(Build(q.String(), &res.Stats, tr.Spans()).Normalize())
		if err != nil {
			t.Fatal(err)
		}
		return spanGoldenCase{Case: name, Profile: p, Spans: spanSkeleton(tr.Spans())}
	}
	faults := base
	faults.MaxAttempts = 3
	faults.FailMap = func(m, a int) bool { return a == 1 && m%2 == 0 }
	faults.FailReduce = func(r, a int) bool { return a == 1 && r%5 == 1 }

	var cases []spanGoldenCase
	for _, m := range []spatial.Method{spatial.Cascade, spatial.AllReplicate, spatial.ControlledReplicate, spatial.ControlledReplicateLimit} {
		cases = append(cases, traced(m.String()+"/plain", m, base))
		cases = append(cases, traced(m.String()+"/faults", m, faults))

		probe, err := spatial.Execute(m, q, rels, base)
		if err != nil {
			t.Fatal(err)
		}
		killAt := int(probe.Stats.Chain.Jobs) - 1
		fs := dfs.New(0)
		killed := base
		killed.FS = fs
		killed.FailJob = func(i int) bool { return i == killAt }
		if _, err := spatial.Execute(m, q, rels, killed); err == nil {
			t.Fatalf("%v: the kill before job %d did not fire", m, killAt)
		}
		resumed := base
		resumed.FS = fs
		resumed.Resume = true
		cases = append(cases, traced(m.String()+"/resumed", m, resumed))
	}
	return cases
}

func TestSpanGolden(t *testing.T) {
	got, err := json.MarshalIndent(spanGoldenRuns(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("MWSJ_WRITE_SPAN_GOLDEN") != "" {
		if err := os.WriteFile(spanGoldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", spanGoldenFile)
		return
	}
	want, err := os.ReadFile(spanGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var gotCases, wantCases []spanGoldenCase
	if err := json.Unmarshal(got, &gotCases); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &wantCases); err != nil {
		t.Fatal(err)
	}
	if len(gotCases) != len(wantCases) {
		t.Fatalf("%d cases, %s has %d", len(gotCases), spanGoldenFile, len(wantCases))
	}
	for i, g := range gotCases {
		w := wantCases[i]
		if !bytes.Equal(g.Profile, w.Profile) {
			t.Errorf("%s: profile\n got %s\nwant %s", g.Case, g.Profile, w.Profile)
		}
		if fmt.Sprint(g.Spans) != fmt.Sprint(w.Spans) {
			t.Errorf("%s: span tree\n got %q\nwant %q", g.Case, g.Spans, w.Spans)
		}
	}
}
