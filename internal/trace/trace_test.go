package trace

import (
	"sync"
	"testing"
	"time"
)

func TestSpanHierarchy(t *testing.T) {
	tr := New()
	run := tr.Start(0, KindRun, "c-rep q2")
	round := tr.Start(run, KindRound, "mark")
	job := tr.Start(round, KindJob, "c-rep-mark")
	tr.End(job)
	tr.End(round)
	tr.End(run)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].ID != 1 || spans[1].ID != 2 || spans[2].ID != 3 {
		t.Errorf("IDs not sequential: %v %v %v", spans[0].ID, spans[1].ID, spans[2].ID)
	}
	if spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID {
		t.Errorf("parent chain broken: %+v", spans)
	}
	if js := spans[2]; js.Kind != KindJob || js.Name != "c-rep-mark" {
		t.Errorf("job span = %+v", js)
	}
	for _, s := range spans {
		if s.Dur < 0 || s.Unfinished {
			t.Errorf("span %d not ended cleanly: %+v", s.ID, s)
		}
		if s.Start < 0 {
			t.Errorf("span %d negative start", s.ID)
		}
	}
}

func TestDeterministicIDs(t *testing.T) {
	build := func() []Span {
		tr := New()
		run := tr.Start(0, KindRun, "run")
		for i := 0; i < 3; i++ {
			j := tr.Start(run, KindJob, "job")
			tr.End(j)
		}
		tr.End(run)
		return tr.Spans()
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Parent != b[i].Parent || a[i].Name != b[i].Name || a[i].Kind != b[i].Kind {
			t.Errorf("span %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestNilTracerNoOp: every method of a nil tracer is safe, returns
// zero values, and allocates nothing — the contract that lets the
// engine call the tracer unconditionally.
func TestNilTracerNoOp(t *testing.T) {
	var tr *Tracer
	if id := tr.Start(0, KindRun, "x"); id != 0 {
		t.Errorf("nil Start = %d", id)
	}
	tr.End(0)
	tr.End(7)
	if tr.Observe(0, KindTask, "t", time.Now(), time.Now()) != 0 {
		t.Error("nil Observe must return 0")
	}
	if tr.Spans() != nil {
		t.Error("nil Spans must return nil")
	}

	allocs := testing.AllocsPerRun(200, func() {
		id := tr.Start(0, KindJob, "job")
		tr.End(id)
	})
	if allocs != 0 {
		t.Errorf("nil tracer allocates %.1f per call group, want 0", allocs)
	}
}

func TestEndIdempotentAndUnknown(t *testing.T) {
	tr := New()
	id := tr.Start(0, KindRun, "r")
	tr.End(id)
	d1 := tr.Spans()[0].Dur
	time.Sleep(time.Millisecond)
	tr.End(id) // second End must not stretch the duration
	tr.End(99) // unknown is a no-op
	tr.End(-1)
	if d2 := tr.Spans()[0].Dur; d2 != d1 {
		t.Errorf("duration changed on double End: %v -> %v", d1, d2)
	}
}

func TestConcurrentUse(t *testing.T) {
	tr := New()
	run := tr.Start(0, KindRun, "run")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := tr.Start(run, KindTask, "t")
				tr.End(id)
			}
		}()
	}
	wg.Wait()
	tr.End(run)
	spans := tr.Spans()
	if len(spans) != 801 {
		t.Fatalf("got %d spans, want 801", len(spans))
	}
	for i, s := range spans {
		if s.ID != SpanID(i+1) || s.Dur < 0 || (i > 0 && s.Parent != run) {
			t.Errorf("span %d = %+v", i, s)
		}
	}
}

// TestFinishOpenFlagsOrphans: FinishOpen closes exactly the spans an
// abandoned execution left open, marks them unfinished, and leaves no
// negative duration in the snapshot an exporter reads.
func TestFinishOpenFlagsOrphans(t *testing.T) {
	tr := New()
	run := tr.Start(0, KindRun, "run")
	done := tr.Start(run, KindJob, "finished")
	tr.End(done)
	orphanRound := tr.Start(run, KindRound, "step-1")
	orphanPhase := tr.Start(orphanRound, KindPhase, "map")
	// Simulate a panic/cancel unwinding past the End calls for run,
	// round and phase.
	if n := tr.FinishOpen(); n != 3 {
		t.Fatalf("FinishOpen closed %d spans, want 3", n)
	}
	byID := map[SpanID]Span{}
	for _, s := range tr.Spans() {
		if s.Dur < 0 {
			t.Errorf("span %d (%s) still open after FinishOpen", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	if byID[done].Unfinished {
		t.Error("cleanly ended span wrongly flagged unfinished")
	}
	for _, id := range []SpanID{run, orphanRound, orphanPhase} {
		if !byID[id].Unfinished {
			t.Errorf("span %d not flagged unfinished: %+v", id, byID[id])
		}
	}
	// Idempotent: nothing left to close.
	if n := tr.FinishOpen(); n != 0 {
		t.Errorf("second FinishOpen closed %d spans, want 0", n)
	}
	var nilTr *Tracer
	if nilTr.FinishOpen() != 0 {
		t.Error("nil FinishOpen must return 0")
	}
}

// TestFindAndObserve: an observed span is found in the snapshot by its
// kind and name, under its parent, with the duration it was given.
func TestFindAndObserve(t *testing.T) {
	tr := New()
	run := tr.Start(0, KindRun, "run")
	t0 := time.Now()
	id := tr.Observe(run, KindTask, "map-0#1", t0, t0.Add(5*time.Millisecond))
	if id == 0 {
		t.Fatal("Observe returned 0 on live tracer")
	}
	tr.End(run)
	var found []Span
	for _, s := range tr.Spans() {
		if s.Kind == KindTask && s.Name == "map-0#1" {
			found = append(found, s)
		}
	}
	if len(found) != 1 || found[0].ID != id || found[0].Parent != run || found[0].Dur != 5*time.Millisecond {
		t.Errorf("found %+v", found)
	}
}
