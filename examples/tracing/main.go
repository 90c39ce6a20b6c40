// Tracing walks through the structured tracing layer: attach a Tracer
// to a Controlled-Replicate run, print the query profile built from its
// spans (run → mark/join rounds → map/shuffle/reduce phases with
// per-phase counters and each round's reducer skew), export the same
// spans as a Chrome trace, and show how the job spans decompose the
// flat Stats totals.
//
//	go run ./examples/tracing
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

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
	// or Perfetto); each job span's counters mirror the Stats entry of
	// its round exactly.
	var chrome bytes.Buffer
	if err := mwsjoin.WriteChromeTrace(&chrome, spans); err != nil {
		return err
	}
	if err := mwsjoin.ValidateChromeTrace(chrome.Bytes()); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n── Chrome trace: %d spans in %d bytes, job counters vs Stats ──\n", len(spans), chrome.Len())
	jobIdx := 0
	for _, s := range spans {
		if s.Kind != trace.KindJob {
			continue
		}
		st := res.Stats.Rounds[jobIdx]
		fmt.Fprintf(w, "job %-12s trace pairs=%-8d stats pairs=%-8d match=%v\n",
			s.Name, s.Counter("pairs"), st.IntermediatePairs,
			s.Counter("pairs") == st.IntermediatePairs)
		jobIdx++
	}
	return nil
}
