// Tracing walks through the structured tracing layer: attach a Tracer
// to a Controlled-Replicate run, print the query profile (run →
// mark/join rounds → map/shuffle/reduce phases, counted by Stats and
// timed by the spans, with each round's reducer skew), export the spans
// as a Chrome trace, and set each job span's wall time beside the pairs
// its round's Stats counted.
//
//	go run ./examples/tracing
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"mwsjoin"
	"mwsjoin/internal/trace"
)

func main() {
	if err := run(os.Stdout, 4000); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, n int) error {
	p := mwsjoin.PaperSyntheticParams(n)
	p.XMax, p.YMax = 10_000, 10_000
	rels := make([]mwsjoin.Relation, 3)
	for i := range rels {
		rel, err := mwsjoin.SyntheticRelation(fmt.Sprintf("R%d", i+1), p, uint64(i+1))
		if err != nil {
			return err
		}
		rels[i] = rel
	}
	q, err := mwsjoin.ParseQuery("R1 ov R2 and R2 ra(100) R3")
	if err != nil {
		return err
	}

	// One tracer records the whole execution; the same tracer could
	// collect several sequential runs for comparison.
	tracer := mwsjoin.NewTracer()
	res, err := mwsjoin.Run(q, rels, mwsjoin.ControlledReplicate, &mwsjoin.Options{
		Reducers: 16,
		Tracer:   tracer,
	})
	if err != nil {
		return err
	}
	spans := tracer.Spans()

	fmt.Fprintf(w, "query: %s  →  %d tuples\n\n", q, len(res.Tuples))
	fmt.Fprintln(w, "── profile ──")
	if err := mwsjoin.BuildProfile(q, &res.Stats, spans).WriteText(w); err != nil {
		return err
	}

	// The Chrome trace carries every span (load it in chrome://tracing
	// or Perfetto). Spans carry time only: job span i is round i of
	// Stats, which holds its counts.
	var chrome bytes.Buffer
	if err := mwsjoin.WriteChromeTrace(&chrome, spans); err != nil {
		return err
	}
	if err := mwsjoin.ValidateChromeTrace(chrome.Bytes()); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n── Chrome trace: %d spans in %d bytes; job walls beside Stats ──\n", len(spans), chrome.Len())
	jobIdx := 0
	for _, s := range spans {
		if s.Kind != trace.KindJob {
			continue
		}
		if jobIdx >= len(res.Stats.Rounds) || s.Name != res.Stats.Rounds[jobIdx].Job {
			return fmt.Errorf("job span %d (%s) is not round %d of Stats", s.ID, s.Name, jobIdx+1)
		}
		fmt.Fprintf(w, "job %-12s wall=%-10v stats pairs=%d\n",
			s.Name, s.Dur.Round(time.Microsecond), res.Stats.Rounds[jobIdx].IntermediatePairs)
		jobIdx++
	}
	return nil
}
