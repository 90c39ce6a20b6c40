package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mwsjoin/internal/trace"
)

// chromeEvent is one complete ("ph":"X") event of the Chrome
// trace-event format; ts/dur are microseconds, the format's native
// unit, so span offsets map 1:1.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	TS   int64            `json:"ts"`
	Dur  int64            `json:"dur"`
	PID  int64            `json:"pid"`
	TID  int64            `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container form of the trace-event
// format — the variant chrome://tracing and Perfetto both load.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// hierarchyTID is the virtual thread carrying the strictly nested
// run/round/job/phase spans; task attempts get per-task lanes above it
// because concurrent attempts overlap in time and would break the
// viewer's stack nesting on a shared track.
const hierarchyTID = 1

// WriteChromeTrace exports a span snapshot as Chrome trace-event JSON
// loadable by chrome://tracing and Perfetto. Every span becomes one
// complete event: the span kind is the category, and the args are its
// "span_id" and "parent_id", so the span tree can be rebuilt from the
// trace alone. A span still open in the snapshot is emitted with
// duration 0 and an "open" arg — the format rejects negative durations
// — and a span FinishOpen closed carries an "unfinished" arg. Counts
// are not in the trace: they are the run's Stats.
func WriteChromeTrace(w io.Writer, spans []trace.Span) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(spans))}
	for _, s := range spans {
		args := map[string]int64{"span_id": int64(s.ID), "parent_id": int64(s.Parent)}
		if s.Unfinished {
			args["unfinished"] = 1
		}
		ev := chromeEvent{
			Name: s.Name,
			Cat:  string(s.Kind),
			Ph:   "X",
			TS:   s.Start.Microseconds(),
			Dur:  s.Dur.Microseconds(),
			PID:  1,
			TID:  hierarchyTID,
			Args: args,
		}
		if s.Kind == trace.KindTask {
			ev.TID = taskTID(s.Name)
		}
		if s.Dur < 0 {
			ev.Dur = 0
			args["open"] = 1
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// taskTID derives a stable lane for a task attempt from its
// "<kind>-<task>#<attempt>" name, so attempts of different tasks (which
// ran concurrently) land on different tracks.
func taskTID(name string) int64 {
	base := name
	if i := strings.IndexByte(base, '#'); i >= 0 {
		base = base[:i]
	}
	if i := strings.LastIndexByte(base, '-'); i >= 0 {
		if n, err := strconv.Atoi(base[i+1:]); err == nil && n >= 0 {
			return hierarchyTID + 1 + int64(n)
		}
	}
	return hierarchyTID + 1
}

// ValidateChromeTrace checks that data is a loadable trace-event JSON
// document: an object with a non-empty traceEvents array of complete
// events with non-empty names and non-negative timestamps/durations —
// the invariants chrome://tracing enforces at load time.
func ValidateChromeTrace(data []byte) error {
	var tr chromeTrace
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tr); err != nil {
		return fmt.Errorf("profile: chrome trace is not valid JSON: %w", err)
	}
	if len(tr.TraceEvents) == 0 {
		return fmt.Errorf("profile: chrome trace has no events")
	}
	for i, ev := range tr.TraceEvents {
		switch {
		case ev.Ph != "X":
			return fmt.Errorf("profile: event %d: phase %q, want complete event \"X\"", i, ev.Ph)
		case ev.Name == "":
			return fmt.Errorf("profile: event %d: empty name", i)
		case ev.TS < 0:
			return fmt.Errorf("profile: event %d (%s): negative timestamp %d", i, ev.Name, ev.TS)
		case ev.Dur < 0:
			return fmt.Errorf("profile: event %d (%s): negative duration %d", i, ev.Name, ev.Dur)
		case ev.PID <= 0 || ev.TID <= 0:
			return fmt.Errorf("profile: event %d (%s): non-positive pid/tid", i, ev.Name)
		}
	}
	return nil
}
