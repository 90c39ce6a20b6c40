package profile

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
	"mwsjoin/internal/trace"
)

// TestChromeTraceExportValidates is the acceptance check: a real
// traced execution exports to trace-event JSON that passes the schema
// validator — every span becomes a complete event with non-negative
// times, tasks land on their own lanes, and the args are the span's
// identity and nothing else.
func TestChromeTraceExportValidates(t *testing.T) {
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	rels := testRelations(21, 3, 200, 1000, 60)
	tr := trace.New()
	if _, err := spatial.Execute(spatial.ControlledReplicate, q, rels, spatial.Config{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}

	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(doc.TraceEvents) != len(spans) {
		t.Fatalf("%d events for %d spans", len(doc.TraceEvents), len(spans))
	}
	var cats, tids = map[string]int{}, map[int64]int{}
	for i, ev := range doc.TraceEvents {
		cats[ev.Cat]++
		tids[ev.TID]++
		if ev.TS != spans[i].Start.Microseconds() {
			t.Errorf("event %d ts %d != span start %d", i, ev.TS, spans[i].Start.Microseconds())
		}
		if len(ev.Args) != 2 {
			t.Errorf("event %d (%s) args = %v, want span_id and parent_id only", i, ev.Name, ev.Args)
		}
	}
	for _, kind := range []string{"run", "round", "job", "phase", "task"} {
		if cats[kind] == 0 {
			t.Errorf("no %s events in export", kind)
		}
	}
	if len(tids) < 2 {
		t.Errorf("task lanes collapsed onto the hierarchy track: tids %v", tids)
	}
}

// spansFromChrome rebuilds the span snapshot a trace was written from:
// identity from the span_id/parent_id args, Dur == -1 for an event
// flagged open, and Unfinished for one flagged unfinished. Times come
// back in whole microseconds, the format's unit.
func spansFromChrome(t *testing.T, data []byte) []trace.Span {
	t.Helper()
	var doc chromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	spans := make([]trace.Span, len(doc.TraceEvents))
	for i, ev := range doc.TraceEvents {
		id, okID := ev.Args["span_id"]
		parent, okParent := ev.Args["parent_id"]
		if !okID || !okParent {
			t.Fatalf("event %d (%s) has no span_id/parent_id: %v", i, ev.Name, ev.Args)
		}
		s := trace.Span{
			ID: trace.SpanID(id), Parent: trace.SpanID(parent), Kind: trace.Kind(ev.Cat), Name: ev.Name,
			Start: time.Duration(ev.TS) * time.Microsecond,
			Dur:   time.Duration(ev.Dur) * time.Microsecond,
		}
		if ev.Args["open"] == 1 {
			s.Dur = -1
		}
		s.Unfinished = ev.Args["unfinished"] == 1
		spans[i] = s
	}
	return spans
}

// TestChromeTraceRebuildsSpanTree: the Chrome trace is the timeline's
// only export, so it must be lossless — one event per span of a traced
// C-Rep run, an unfinished one and an open one, and the tree rebuilt
// from the events equals Tracer.Spans() up to microsecond rounding.
func TestChromeTraceRebuildsSpanTree(t *testing.T) {
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	rels := testRelations(21, 3, 200, 1000, 60)
	tr := trace.New()
	if _, err := spatial.Execute(spatial.ControlledReplicate, q, rels, spatial.Config{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	tr.Start(0, trace.KindRun, "orphaned")
	tr.FinishOpen()
	tr.Start(0, trace.KindRun, "abandoned")
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	want := tr.Spans()
	for i := range want {
		want[i].Start = time.Duration(want[i].Start.Microseconds()) * time.Microsecond
		if want[i].Dur >= 0 {
			want[i].Dur = time.Duration(want[i].Dur.Microseconds()) * time.Microsecond
		}
	}
	got := spansFromChrome(t, buf.Bytes())
	if !reflect.DeepEqual(got, want) {
		if len(got) != len(want) {
			t.Fatalf("%d events for %d spans", len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("span %d rebuilt as %+v, want %+v", i, got[i], want[i])
			}
		}
	}
	if open := got[len(got)-1]; open.Dur != -1 || open.Unfinished {
		t.Errorf("open span rebuilt as %+v", open)
	}
	if orphan := got[len(got)-2]; orphan.Dur < 0 || !orphan.Unfinished {
		t.Errorf("unfinished span rebuilt as %+v", orphan)
	}
}

// TestChromeTraceOpenSpanFlagged: an open span exports with duration 0
// and an "open" arg — never a negative duration — and still validates.
func TestChromeTraceOpenSpanFlagged(t *testing.T) {
	tr := trace.New()
	tr.Start(0, trace.KindRun, "abandoned")
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("open-span trace fails validation: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `"open":1`) || strings.Contains(out, `"dur":-`) {
		t.Errorf("open span not flagged: %s", out)
	}
}

// TestValidateChromeTraceRejects covers the malformed documents the
// schema check must refuse.
func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":          `{"traceEvents":`,
		"no events":         `{"traceEvents":[],"displayTimeUnit":"ms"}`,
		"negative duration": `{"traceEvents":[{"name":"x","cat":"run","ph":"X","ts":0,"dur":-5,"pid":1,"tid":1}],"displayTimeUnit":"ms"}`,
		"negative ts":       `{"traceEvents":[{"name":"x","cat":"run","ph":"X","ts":-1,"dur":5,"pid":1,"tid":1}],"displayTimeUnit":"ms"}`,
		"empty name":        `{"traceEvents":[{"name":"","cat":"run","ph":"X","ts":0,"dur":5,"pid":1,"tid":1}],"displayTimeUnit":"ms"}`,
		"wrong phase":       `{"traceEvents":[{"name":"x","cat":"run","ph":"B","ts":0,"dur":5,"pid":1,"tid":1}],"displayTimeUnit":"ms"}`,
		"zero tid":          `{"traceEvents":[{"name":"x","cat":"run","ph":"X","ts":0,"dur":5,"pid":1,"tid":0}],"displayTimeUnit":"ms"}`,
	}
	for name, doc := range cases {
		if err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validator accepted %s", name, doc)
		}
	}
	good := `{"traceEvents":[{"name":"x","cat":"run","ph":"X","ts":0,"dur":5,"pid":1,"tid":1}],"displayTimeUnit":"ms"}`
	if err := ValidateChromeTrace([]byte(good)); err != nil {
		t.Errorf("validator rejected minimal valid trace: %v", err)
	}
}

// TestTaskTID: lanes derive from the task index, shared by attempts of
// the same task and distinct across tasks.
func TestTaskTID(t *testing.T) {
	if taskTID("map-3#1") != taskTID("map-3#2") {
		t.Error("attempts of one task split across lanes")
	}
	if taskTID("map-3#1") == taskTID("map-4#1") {
		t.Error("distinct tasks share a lane")
	}
	if taskTID("weird") <= 0 || taskTID("weird") == hierarchyTID {
		t.Error("unparseable task name must still land off the hierarchy track")
	}
}
