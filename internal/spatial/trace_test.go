package spatial

import (
	"math/rand/v2"
	"strings"
	"testing"

	"mwsjoin/internal/query"
	"mwsjoin/internal/trace"
)

// traceWorkload builds a small 3-relation workload for trace tests.
func traceWorkload(t *testing.T) (*query.Query, []Relation) {
	t.Helper()
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 30)
	rng := rand.New(rand.NewPCG(2013, 42))
	return q, randomRelations(rng, 3, 120, 1000, 80)
}

// jobTimeline is one job span of a snapshot with the task spans (one
// per attempt) under its map and reduce phases.
type jobTimeline struct {
	span                  trace.Span
	mapTasks, reduceTasks int64
}

// jobTimelines returns a snapshot's job spans in ID order, each with
// its task counts.
func jobTimelines(spans []trace.Span) []jobTimeline {
	var jobs []jobTimeline
	jobAt := map[trace.SpanID]int{}
	phaseOf := map[trace.SpanID]trace.Span{}
	for _, s := range spans {
		switch s.Kind {
		case trace.KindJob:
			jobAt[s.ID] = len(jobs)
			jobs = append(jobs, jobTimeline{span: s})
		case trace.KindPhase:
			phaseOf[s.ID] = s
		case trace.KindTask:
			ph := phaseOf[s.Parent]
			if i, ok := jobAt[ph.Parent]; ok && ph.Name == "map" {
				jobs[i].mapTasks++
			} else if ok && ph.Name == "reduce" {
				jobs[i].reduceTasks++
			}
		}
	}
	return jobs
}

// checkTimeline reconciles a traced execution's spans with its Stats,
// the record of every count: every span is closed and finished, job
// span i is round i of Stats (every round ran; none was resumed), and
// its map and reduce phases hold one task span per attempt Stats counts.
func checkTimeline(t testing.TB, label string, spans []trace.Span, st *Stats) {
	t.Helper()
	for _, s := range spans {
		if s.Dur < 0 || s.Unfinished {
			t.Errorf("%s: span %d (%s %s) open or unfinished: %+v", label, s.ID, s.Kind, s.Name, s)
		}
	}
	jobs := jobTimelines(spans)
	if len(jobs) != len(st.Rounds) {
		t.Fatalf("%s: %d job spans for %d rounds", label, len(jobs), len(st.Rounds))
	}
	for i, r := range st.Rounds {
		j := jobs[i]
		if j.span.Name != r.Job {
			t.Errorf("%s: job span %d named %q, round %d of Stats is %q", label, i, j.span.Name, i, r.Job)
		}
		if j.mapTasks != r.MapAttempts || j.reduceTasks != r.ReduceAttempts {
			t.Errorf("%s: round %d (%s): %d map and %d reduce task spans, Stats counts %d and %d attempts",
				label, i, r.Job, j.mapTasks, j.reduceTasks, r.MapAttempts, r.ReduceAttempts)
		}
	}
}

// TestTraceHierarchy checks the span tree shape for a
// Controlled-Replicate run — run → {mark, join} rounds → jobs → phases
// — and, for every map-reduce method, that the job spans are Stats'
// rounds in order.
func TestTraceHierarchy(t *testing.T) {
	q, rels := traceWorkload(t)
	for _, m := range []Method{Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit} {
		tr := trace.New()
		res, err := Execute(m, q, rels, Config{Tracer: tr})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		checkTimeline(t, m.String(), tr.Spans(), &res.Stats)
		if m != ControlledReplicate {
			continue
		}
		var run trace.Span
		var rounds []trace.Span
		for _, s := range tr.Spans() {
			switch s.Kind {
			case trace.KindRun:
				run = s
			case trace.KindRound:
				rounds = append(rounds, s)
			}
		}
		if run.ID != 1 || run.Parent != 0 {
			t.Errorf("run span malformed: %+v", run)
		}
		if !strings.HasPrefix(run.Name, "c-rep ") {
			t.Errorf("run span name %q lacks method prefix", run.Name)
		}
		if len(rounds) != 2 || rounds[0].Name != "mark" || rounds[1].Name != "join" {
			t.Fatalf("rounds = %+v, want mark + join", rounds)
		}
		for _, r := range rounds {
			if r.Parent != run.ID {
				t.Errorf("round %s not under run", r.Name)
			}
		}
		for _, j := range jobTimelines(tr.Spans()) {
			if j.span.Parent != rounds[0].ID && j.span.Parent != rounds[1].ID {
				t.Errorf("job %s not under a round span", j.span.Name)
			}
		}
	}
}

// TestTracingSemanticsTransparent: the same execution with and without
// a tracer returns identical tuples and cost counters.
func TestTracingSemanticsTransparent(t *testing.T) {
	q, rels := traceWorkload(t)
	for _, m := range []Method{Cascade, AllReplicate, ControlledReplicateLimit} {
		plain, err := Execute(m, q, rels, Config{})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := Execute(m, q, rels, Config{Tracer: trace.New()})
		if err != nil {
			t.Fatal(err)
		}
		if !sameTupleSet(plain.TupleSet(), traced.TupleSet()) {
			t.Errorf("%v: tuples differ under tracing", m)
		}
		if plain.Stats.IntermediatePairs() != traced.Stats.IntermediatePairs() {
			t.Errorf("%v: pairs differ: %d vs %d", m, plain.Stats.IntermediatePairs(), traced.Stats.IntermediatePairs())
		}
		if plain.Stats.RectanglesReplicated != traced.Stats.RectanglesReplicated {
			t.Errorf("%v: replication differs", m)
		}
	}
}

// sameTupleSet compares two canonical tuple sets.
func sameTupleSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
