// Package trace records the timeline of one execution of the simulated
// map-reduce stack. The paper's cost metrics — intermediate key-value
// pairs shuffled, rectangles replicated, DFS bytes moved across cascaded
// jobs (§6.4, §7.8.3) — are counts per run and live in spatial.Stats;
// what Stats cannot show is *when* inside a multi-job Cascade or
// Controlled-Replicate run the time goes. A Tracer records that as a
// hierarchy of timed spans:
//
//	run                  one Execute call (method + query)
//	└─ round             one algorithm step (a cascade step, C-Rep's
//	                     mark/join rounds), including its DFS staging
//	   └─ job            one map-reduce job
//	      └─ phase       map / shuffle / reduce
//	         └─ task     one task attempt (mapper m attempt a, ...)
//
// A span is a timeline entry and nothing else: ID, parent, kind, name,
// start and duration. It carries no counters; every count is read from
// Stats. Span IDs are small integers assigned in creation order, so a
// deterministic execution produces a deterministic span tree (wall
// times are the only varying fields).
//
// A nil *Tracer is a valid no-op: every method is nil-safe and
// allocation-free, so production paths pay nothing when tracing is off.
// The exporters live in internal/profile: the Chrome trace-event
// timeline (every span, its id and parent) and the per-round profile,
// which takes its counts from Stats and its shuffle walls from here.
package trace

import (
	"sync"
	"time"
)

// SpanID identifies a span within one Tracer. The zero SpanID means
// "no span": it is the parent of root spans, the return value of every
// method on a nil Tracer, and a valid (ignored) target for End.
type SpanID int64

// Kind classifies a span's level in the map-reduce hierarchy.
type Kind string

const (
	// KindRun is a whole query execution (one method on one query).
	KindRun Kind = "run"
	// KindRound is one algorithm step: a cascade join step or a
	// Controlled-Replicate round, including its DFS staging I/O.
	KindRound Kind = "round"
	// KindJob is one map-reduce job.
	KindJob Kind = "job"
	// KindPhase is a job phase: map, shuffle or reduce.
	KindPhase Kind = "phase"
	// KindTask is one task attempt within a phase.
	KindTask Kind = "task"
)

// Span is one recorded span. Start is the offset from the tracer's
// epoch (its New time); Dur is -1 while the span is still open.
// Unfinished marks a span closed by FinishOpen rather than by its own
// End call, so exports and profiles can tell a clean completion from a
// span orphaned by a panic, a cancellation, or an error return that
// skipped the End.
type Span struct {
	ID         SpanID
	Parent     SpanID
	Kind       Kind
	Name       string
	Start      time.Duration
	Dur        time.Duration
	Unfinished bool
}

// Tracer records spans. It is safe for concurrent use. The zero value
// is not usable; call New. A nil *Tracer is the documented no-op.
type Tracer struct {
	epoch time.Time

	mu sync.Mutex
	// spans[id-1] is the span with that ID.
	spans []Span
}

// New creates an empty tracer whose epoch (time zero of all span
// offsets) is now.
func New() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// newSpanLocked appends a span and returns its ID. Caller holds t.mu.
func (t *Tracer) newSpanLocked(parent SpanID, kind Kind, name string, start, dur time.Duration) SpanID {
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Kind: kind, Name: name, Start: start, Dur: dur})
	return id
}

// Start opens a span under the given parent (0 for a root span) and
// returns its ID. On a nil tracer it returns 0 without allocating.
func (t *Tracer) Start(parent SpanID, kind Kind, name string) SpanID {
	if t == nil {
		return 0
	}
	start := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.newSpanLocked(parent, kind, name, start, -1)
}

// End closes the span, fixing its duration. Ending SpanID 0, an
// unknown span, or an already-ended span is a no-op, so callers can
// End unconditionally on every return path.
func (t *Tracer) End(id SpanID) {
	if t == nil || id <= 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) <= len(t.spans) {
		if s := &t.spans[id-1]; s.Dur < 0 {
			s.Dur = now - s.Start
		}
	}
}

// Observe records an already-completed span from externally measured
// start/end times — used for task attempts, which run concurrently but
// are logged in deterministic task order after their phase completes.
func (t *Tracer) Observe(parent SpanID, kind Kind, name string, start, end time.Time) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.newSpanLocked(parent, kind, name, start.Sub(t.epoch), end.Sub(start))
}

// FinishOpen closes every span still open at the current time, marking
// each Unfinished, and returns how many it closed. It is the finalizer
// for panic/cancel/error paths: a span tree handed to an exporter after
// FinishOpen contains no open (Dur == -1) spans, so timelines never
// serialize negative durations. On a clean run every span was already
// ended and FinishOpen is a no-op returning 0. Safe on a nil tracer.
func (t *Tracer) FinishOpen() int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	closed := 0
	for i := range t.spans {
		if s := &t.spans[i]; s.Dur < 0 {
			s.Dur = max(now-s.Start, 0)
			s.Unfinished = true
			closed++
		}
	}
	return closed
}

// Spans returns a snapshot of all recorded spans in creation (ID)
// order. Open spans have Dur == -1. A nil tracer returns nil.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}
