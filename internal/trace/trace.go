// Package trace is the observability spine of the reproduction: a
// lightweight, stdlib-only structured tracing and metrics layer for the
// simulated map-reduce stack. The paper's entire argument is cost
// accounting — intermediate key-value pairs shuffled, DFS bytes moved
// across cascaded jobs, per-reducer compute (§5, §6.4) — and the flat
// per-job Stats structs cannot show *where inside* a multi-job Cascade
// or Controlled-Replicate run the time and bytes go. A Tracer records
// that decomposition as a hierarchy of timed spans:
//
//	run                  one Execute call (method + query)
//	└─ round             one algorithm step (a cascade step, C-Rep's
//	                     mark/join rounds), including its DFS staging
//	   └─ job            one map-reduce job
//	      └─ phase       map / shuffle / reduce
//	         └─ task     one task attempt (mapper m attempt a, ...)
//
// Each span carries named int64 counters (pairs, bytes, records,
// retries, ...). Span IDs are small integers assigned in creation
// order, so a deterministic execution produces a deterministic span
// tree (wall times are the only varying fields).
//
// A nil *Tracer is a valid no-op: every method is nil-safe and
// allocation-free, so production paths pay nothing when tracing is off.
// The exporters live in internal/profile: the Chrome trace-event
// timeline (every span, its id, parent and counters) and the per-round
// profile text.
package trace

import (
	"sync"
	"time"
)

// SpanID identifies a span within one Tracer. The zero SpanID means
// "no span": it is the parent of root spans, the return value of every
// method on a nil Tracer, and a valid (ignored) target for Add/End.
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

// Span is an exported snapshot of one recorded span. Start is the
// offset from the tracer's epoch (its New time); Dur is -1 while the
// span is still open.
type Span struct {
	ID       SpanID
	Parent   SpanID
	Kind     Kind
	Name     string
	Start    time.Duration
	Dur      time.Duration
	Counters map[string]int64
}

// Counter returns the named counter's value, 0 when absent.
func (s Span) Counter(name string) int64 { return s.Counters[name] }

// span is the mutable internal representation.
type span struct {
	id       SpanID
	parent   SpanID
	kind     Kind
	name     string
	start    time.Duration
	dur      time.Duration // -1 while open
	counters map[string]int64
}

// Tracer records spans and counters. It is safe for concurrent use:
// reducers running in parallel may attach counters and tasks
// concurrently. The zero value is not usable; call New. A nil *Tracer
// is the documented no-op.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []*span
	byID  map[SpanID]*span
}

// New creates an empty tracer whose epoch (time zero of all span
// offsets) is now.
func New() *Tracer {
	return &Tracer{epoch: time.Now(), byID: make(map[SpanID]*span)}
}

// newSpanLocked appends a span and returns it. Caller holds t.mu.
func (t *Tracer) newSpanLocked(parent SpanID, kind Kind, name string, start, dur time.Duration) *span {
	s := &span{
		id:     SpanID(len(t.spans) + 1),
		parent: parent,
		kind:   kind,
		name:   name,
		start:  start,
		dur:    dur,
	}
	t.spans = append(t.spans, s)
	t.byID[s.id] = s
	return s
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
	return t.newSpanLocked(parent, kind, name, start, -1).id
}

// End closes the span, fixing its duration. Ending SpanID 0, an
// unknown span, or an already-ended span is a no-op, so callers can
// End unconditionally on every return path.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.byID[id]; s != nil && s.dur < 0 {
		s.dur = now - s.start
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
	s := t.newSpanLocked(parent, kind, name, start.Sub(t.epoch), end.Sub(start))
	return s.id
}

// Add accumulates delta into the span's named counter. Adding to
// SpanID 0 or on a nil tracer is an allocation-free no-op, so hot
// paths may call it unconditionally.
func (t *Tracer) Add(id SpanID, counter string, delta int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.byID[id]
	if s == nil {
		return
	}
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[counter] += delta
}

// UnfinishedCounter is attached (value 1) to every span closed by
// FinishOpen rather than by its own End call, so exports and profiles
// can tell a clean completion from a span orphaned by a panic, a
// cancellation, or an error return that skipped the End.
const UnfinishedCounter = "unfinished"

// FinishOpen closes every span still open at the current time, marking
// each with the UnfinishedCounter, and returns how many it closed. It
// is the finalizer for panic/cancel/error paths: a span tree handed to
// an exporter after FinishOpen contains no open (Dur == -1) spans, so
// timelines never serialize negative durations. On a clean run every
// span was already ended and FinishOpen is a no-op returning 0. Safe
// on a nil tracer.
func (t *Tracer) FinishOpen() int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	closed := 0
	for _, s := range t.spans {
		if s.dur < 0 {
			s.dur = now - s.start
			if s.dur < 0 {
				s.dur = 0
			}
			if s.counters == nil {
				s.counters = make(map[string]int64)
			}
			s.counters[UnfinishedCounter] = 1
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
	for i, s := range t.spans {
		out[i] = Span{
			ID: s.id, Parent: s.parent, Kind: s.kind, Name: s.name,
			Start: s.start, Dur: s.dur,
		}
		if len(s.counters) > 0 {
			c := make(map[string]int64, len(s.counters))
			for k, v := range s.counters {
				c[k] = v
			}
			out[i].Counters = c
		}
	}
	return out
}

// Find returns the spans of the given kind whose name matches, in ID
// order; an empty name matches every span of the kind.
func (t *Tracer) Find(kind Kind, name string) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Kind == kind && (name == "" || s.Name == name) {
			out = append(out, s)
		}
	}
	return out
}
