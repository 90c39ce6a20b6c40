// Package profile assembles per-query execution profiles. The paper's
// experimental argument is per-phase cost attribution — map vs shuffle
// vs reduce pairs/bytes/time per round (§6.4, §7.8.3) — and the flat
// Stats structs plus the span timeline each hold half of that picture.
// A Profile joins them: every count comes from spatial.Stats (the one
// record, bit-identical across parallelism), the shuffle wall times
// come from the tracer's spans, and Normalize zeroes the wall fields so
// profiles are property-testable (two runs of the same query produce
// byte-identical normalized profiles). chrome.go exports the timeline
// as Chrome trace-event JSON for chrome://tracing/Perfetto.
package profile

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/spatial"
	"mwsjoin/internal/trace"
)

// MapPhase is the map side of one round: input, retries and combiner
// effectiveness.
type MapPhase struct {
	WallUS     int64 `json:"wall_us"`
	Records    int64 `json:"records"`
	Attempts   int64 `json:"attempts"`
	Failures   int64 `json:"failures"`
	CombineIn  int64 `json:"combine_in"`
	CombineOut int64 `json:"combine_out"`
	// CombineRatio is CombineOut/CombineIn — the fraction of pairs the
	// combiner kept (1 = no reduction, 0.25 = 4× shuffle saving); 0
	// when the job has no combiner.
	CombineRatio float64 `json:"combine_ratio,omitempty"`
}

// ShufflePhase is the communication side of one round — the paper's
// figure of merit — plus the reducer-balance summary.
type ShufflePhase struct {
	WallUS          int64 `json:"wall_us"`
	Pairs           int64 `json:"pairs"`
	Bytes           int64 `json:"bytes"`
	Reducers        int64 `json:"reducers"`
	MaxReducerPairs int64 `json:"max_reducer_pairs"`
	// Skew is the max/mean reducer-load ratio (Stats.MaxReducerSkew);
	// a ratio of exact integer counters, so it is deterministic.
	Skew float64 `json:"skew,omitempty"`
}

// ReducePhase is the reduce side of one round.
type ReducePhase struct {
	WallUS   int64 `json:"wall_us"`
	Keys     int64 `json:"keys"`
	Records  int64 `json:"records"`
	Attempts int64 `json:"attempts"`
	Failures int64 `json:"failures"`
}

// RoundProfile decomposes one map-reduce job into its phases.
type RoundProfile struct {
	Job     string       `json:"job"`
	WallUS  int64        `json:"wall_us"`
	Map     MapPhase     `json:"map"`
	Shuffle ShufflePhase `json:"shuffle"`
	Reduce  ReducePhase  `json:"reduce"`
}

// Profile is the structured record of one Execute call: per-round/
// per-phase wall time, bytes, pairs, skew, combiner effectiveness and
// chain/checkpoint accounting. Every field except the *_us wall times
// is derived from deterministic counters, so Normalize (wall fields
// zeroed) yields a byte-stable JSON encoding for identical executions.
type Profile struct {
	Query  string `json:"query"`
	Method string `json:"method"`
	// Cells is the reducer-cell count of the partitioning: the reducers
	// of the first round (0 when no map-reduce job ran, as in
	// BruteForce).
	Cells  int64          `json:"cells,omitempty"`
	WallUS int64          `json:"wall_us"`
	Rounds []RoundProfile `json:"rounds,omitempty"`

	IntermediatePairs          int64 `json:"intermediate_pairs"`
	RectanglesReplicated       int64 `json:"rectangles_replicated"`
	RectanglesAfterReplication int64 `json:"rectangles_after_replication"`
	ReplicationCopies          int64 `json:"replication_copies"`
	OutputTuples               int64 `json:"output_tuples"`

	DFS   dfs.Stats             `json:"dfs"`
	Chain *mapreduce.ChainStats `json:"chain,omitempty"`

	// UnfinishedSpans counts spans in the run's subtree that FinishOpen
	// marked Unfinished (or that were still open at Build time) — 0 on a
	// clean run, non-zero when a panic/cancel/error unwound past span
	// Ends.
	UnfinishedSpans int64 `json:"unfinished_spans,omitempty"`
}

// Build assembles a Profile from an execution's Stats and its span
// snapshot (nil when the run was not traced). Counts come from Stats;
// the tracer contributes the shuffle wall times and the unfinished-span
// tally. The spans of the *last* run span in the snapshot are used, so
// a tracer reused across sequential executions profiles the most
// recent one.
func Build(queryText string, st *spatial.Stats, spans []trace.Span) *Profile {
	p := &Profile{
		Query:                      queryText,
		Method:                     st.Method.String(),
		WallUS:                     st.Wall.Microseconds(),
		IntermediatePairs:          st.IntermediatePairs(),
		RectanglesReplicated:       st.RectanglesReplicated,
		RectanglesAfterReplication: st.RectanglesAfterReplication,
		ReplicationCopies:          st.ReplicationCopies,
		OutputTuples:               st.OutputTuples,
		DFS:                        st.DFS,
	}
	if st.Chain != nil {
		chain := *st.Chain
		p.Chain = &chain
	}
	for _, rst := range st.Rounds {
		p.Rounds = append(p.Rounds, roundFromStats(rst))
	}
	if len(p.Rounds) > 0 {
		p.Cells = p.Rounds[0].Shuffle.Reducers
	}

	sub := lastRunSubtree(spans)
	// Attach span-measured walls. Job spans appear in ID (execution)
	// order; rounds resumed from checkpoints re-use recorded Stats but
	// ran no engine job, so advance through the job spans by matching
	// names rather than assuming one span per round.
	var jobs []trace.Span
	for _, s := range sub {
		if s.Unfinished || s.Dur < 0 {
			p.UnfinishedSpans++
		}
		if s.Kind == trace.KindJob {
			jobs = append(jobs, s)
		}
	}
	children := make(map[trace.SpanID][]trace.Span, len(sub))
	for _, s := range sub {
		children[s.Parent] = append(children[s.Parent], s)
	}
	ji := 0
	for i := range p.Rounds {
		if ji >= len(jobs) || jobs[ji].Name != p.Rounds[i].Job {
			continue // resumed round: no job span, walls stay zero
		}
		for _, ph := range children[jobs[ji].ID] {
			if ph.Kind == trace.KindPhase && ph.Name == "shuffle" && ph.Dur > 0 {
				p.Rounds[i].Shuffle.WallUS = ph.Dur.Microseconds()
			}
		}
		ji++
	}
	return p
}

// roundFromStats converts one job's engine Stats into a RoundProfile
// (shuffle wall is filled in from the span tree by Build).
func roundFromStats(st *mapreduce.Stats) RoundProfile {
	r := RoundProfile{
		Job:    st.Job,
		WallUS: st.TotalWall.Microseconds(),
		Map: MapPhase{
			WallUS:     st.MapWall.Microseconds(),
			Records:    st.MapInputRecords,
			Attempts:   st.MapAttempts,
			Failures:   st.MapFailures,
			CombineIn:  st.CombineInputPairs,
			CombineOut: st.CombineOutputPairs,
		},
		Shuffle: ShufflePhase{
			Pairs:    st.IntermediatePairs,
			Bytes:    st.IntermediateBytes,
			Reducers: int64(len(st.PairsPerReducer)),
			Skew:     st.MaxReducerSkew(),
		},
		Reduce: ReducePhase{
			WallUS:   st.ReduceWall.Microseconds(),
			Keys:     st.ReduceInputKeys,
			Records:  st.ReduceOutputRecords,
			Attempts: st.ReduceAttempts,
			Failures: st.ReduceFailures,
		},
	}
	if st.CombineInputPairs > 0 {
		r.Map.CombineRatio = float64(st.CombineOutputPairs) / float64(st.CombineInputPairs)
	}
	for _, n := range st.PairsPerReducer {
		if n > r.Shuffle.MaxReducerPairs {
			r.Shuffle.MaxReducerPairs = n
		}
	}
	return r
}

// lastRunSubtree returns the spans of the last run span's subtree
// (itself included) in ID order, nil when the snapshot has no run.
func lastRunSubtree(spans []trace.Span) []trace.Span {
	var run trace.SpanID
	for _, s := range spans {
		if s.Kind == trace.KindRun {
			run = s.ID
		}
	}
	if run == 0 {
		return nil
	}
	in := map[trace.SpanID]bool{run: true}
	var sub []trace.Span
	for _, s := range spans {
		if s.ID == run || in[s.Parent] {
			in[s.ID] = true
			sub = append(sub, s)
		}
	}
	return sub
}

// Normalize returns a deep copy with every wall-time field zeroed —
// the deterministic variant: for a given query, config and method, two
// executions produce byte-identical JSON encodings of the normalized
// profile regardless of machine speed, parallelism (with NumMappers
// pinned) or injected faults.
func (p *Profile) Normalize() *Profile {
	out := *p
	out.WallUS = 0
	if p.Chain != nil {
		chain := *p.Chain
		out.Chain = &chain
	}
	out.Rounds = make([]RoundProfile, len(p.Rounds))
	for i, r := range p.Rounds {
		r.WallUS, r.Map.WallUS, r.Shuffle.WallUS, r.Reduce.WallUS = 0, 0, 0, 0
		out.Rounds[i] = r
	}
	return &out
}

// WriteText renders the profile as the human-readable tree behind
// mwsjoin's -profile flag.
func (p *Profile) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "profile %s %q\n", p.Method, p.Query)
	fmt.Fprintf(bw, "  wall %s  cells %d  rounds %d  output tuples %d\n",
		us(p.WallUS), p.Cells, len(p.Rounds), p.OutputTuples)
	fmt.Fprintf(bw, "  pairs %d  replicated %d  copies %d (+%d projections)\n",
		p.IntermediatePairs, p.RectanglesReplicated, p.ReplicationCopies,
		p.RectanglesAfterReplication-p.ReplicationCopies)
	for i, r := range p.Rounds {
		fmt.Fprintf(bw, "  round %d %s  wall %s\n", i+1, r.Job, us(r.WallUS))
		fmt.Fprintf(bw, "    map     %-9s records=%d attempts=%d failures=%d",
			us(r.Map.WallUS), r.Map.Records, r.Map.Attempts, r.Map.Failures)
		if r.Map.CombineIn > 0 {
			fmt.Fprintf(bw, " combine %d→%d (%.1f%%)", r.Map.CombineIn, r.Map.CombineOut, 100*r.Map.CombineRatio)
		}
		fmt.Fprintln(bw)
		fmt.Fprintf(bw, "    shuffle %-9s pairs=%d bytes=%d reducers=%d max=%d skew=%.2f\n",
			us(r.Shuffle.WallUS), r.Shuffle.Pairs, r.Shuffle.Bytes,
			r.Shuffle.Reducers, r.Shuffle.MaxReducerPairs, r.Shuffle.Skew)
		fmt.Fprintf(bw, "    reduce  %-9s keys=%d out=%d attempts=%d failures=%d\n",
			us(r.Reduce.WallUS), r.Reduce.Keys, r.Reduce.Records, r.Reduce.Attempts, r.Reduce.Failures)
	}
	if c := p.Chain; c != nil {
		fmt.Fprintf(bw, "  chain jobs %d (run %d, resumed %d)  checkpoint %dB written / %dB read\n",
			c.Jobs, c.JobsRun, c.ResumedJobs, c.CheckpointBytesWritten, c.CheckpointBytesRead)
	}
	fmt.Fprintf(bw, "  dfs %dB written, %dB read (%d/%d records)\n",
		p.DFS.BytesWritten, p.DFS.BytesRead, p.DFS.RecordsWritten, p.DFS.RecordsRead)
	if p.UnfinishedSpans > 0 {
		fmt.Fprintf(bw, "  ⚠ %d unfinished spans (execution did not complete cleanly)\n", p.UnfinishedSpans)
	}
	return bw.Flush()
}

// us formats a microsecond count for display.
func us(n int64) string {
	return formatDur(time.Duration(n) * time.Microsecond)
}

// formatDur rounds a duration for display (mirrors trace's tree
// formatting).
func formatDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
