package cluster

import (
	"testing"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// TestClusterAllocationCeiling keeps the cluster's envelope from growing
// back: a warm cascade over 3 × 10,000 uniform rectangles through a
// coordinator and two workers that keep the relations — start, two SPMD
// runs, network shuffle, gather — may allocate at most 4.5 × what one
// spatial.Execute of the same query allocates, and at most 6 MiB.
//
// The ratio was 2.00 × when the envelope was binary (with relations and
// tuples as base64 inside JSON lines it was 3.06 ×, 3.4 × at 3 × 50,000)
// and 2.20 × on commit 22365f4: 15.6 MB in-process, 34.3 MB clustered,
// under a 2.75 × ceiling. The concatenating shuffle then took both sides
// down, unequally — in-process to 10.3 MB (−34 %), clustered to 29.0 MB
// (−16 %), whose two SPMD runs share the envelope's fixed cost — so the
// ratio rose to 2.81 × with no byte added. The ceiling moved with the
// denominator, keeping about the old headroom over what is measured,
// and the absolute ceiling, which 22365f4's 34.3 MB fails, holds the
// cluster's own bytes to the new level. Laying each relation out for
// the DFS once, not per query, then took the in-process side from
// 10.3 MB to 8.4 MB; a worker unpacks its relations per query and lays
// them out each time, so the clustered side stayed at 28.7 MB (29.0
// before) and the ratio rose from 2.81 to 3.43. The ceiling moved with
// the denominator again. Then the process came to share one buffer
// pool, and the partial stores to take their pages from it: the
// in-process side, whose input stores go back to the pool (its output
// stores stay with the checkpoint files of the test's FS), fell to
// 3.8–4.8 MB, while the clustered side — whose workers also keep their
// session FS's outputs, and still unpack and lay out the relations per
// query — fell to 25.0–26.6 MB. The ratio rose to 5.3–7.0 across runs;
// with the denominator this small, the test cluster's own background
// allocations move it. The ceiling moved to 8, and the absolute ceiling
// now has the most to say. Then the workers came to keep the relations
// by digest — the warm query's start names them, nothing is packed,
// unpacked or laid out — and a session's pages to go back to the pool
// when its FS closes at the session's end. Measured as before, the
// in-process side fell to 1.6–1.7 MB by taking the pages the workers
// hand back into its test FS's output stores, which made the ratio
// (8.0–8.6) a measure of the cluster's recycling as much as of either
// side. So each side now recycles only its own pages: the in-process
// side is measured before the cluster starts, and runs as the daemon's
// in-process path does, on an FS private to the execution, whose pages
// go back when it returns (1.61 MB); the clustered side's go back
// when each worker ends the session (10.2–11.9 MB, from 25.0–26.6). The
// ratio reads 6.4–7.4 under the ceiling of 8, and the absolute ceiling
// falls from 32 to 14 MiB. Then reducer outputs came to grow in pooled
// chunks and each job's output to be one copy at its exact size. That
// took the in-process side from 1.61–1.72 MB to 1.27–1.38 MB, while the
// clustered side, whose bytes are mostly the exchanges' frames, read
// 9.7–11.3 MB (10.3–11.3 on the commit before): the ratio rose to
// 7.1–8.9, over the ceiling. So the mesh came to read a frame of up to
// a declaredChunk into a recycled chunk it takes back at the engine's
// next exchange, and the clustered side fell to 7.8–9.4 MB, its frames
// over a chunk (a round's gathered outputs) still read into buffers of
// their own. The ratio reads 5.7–7.4 under the ceiling of 8, and the
// absolute ceiling falls from 14 to 12 MiB. Then exchange payloads came
// to live in the process pool at both ends of the wire: the engine
// encodes them into pooled frames it puts back once the exchange
// returns, and the mesh reads every frame of 128 KiB or more into one,
// however large. Over 30 fresh runs the in-process side read 1.27–1.41
// MB and the clustered side 3.25–5.13 MB, a ratio of 2.36–3.88. The
// ceilings keep about the headroom they had: the ratio's falls from 8
// to 4.5, the absolute one from 12 to 6 MiB.
func TestClusterAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	const n = 10000
	p := dataset.PaperDefaults(n)
	p.XMax, p.YMax = 10_000, 10_000 // the paper's density at this n
	rels := make([]spatial.Relation, 3)
	for i, name := range []string{"R1", "R2", "R3"} {
		rel, err := dataset.SyntheticRelation(name, p, uint64(2013+101*i))
		if err != nil {
			t.Fatal(err)
		}
		rels[i] = rel
	}
	const queryText = "R1 ov R2 and R2 ov R3"
	cfg := spatial.Config{Reducers: 64, NumMappers: 8, Parallelism: 1}
	q, err := query.Parse(queryText)
	if err != nil {
		t.Fatal(err)
	}

	var tuples int
	inProcess := func() {
		res, err := spatial.Execute(spatial.Cascade, q, rels, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tuples = len(res.Tuples)
	}
	inProcess() // warm: lazy summaries, the pool
	direct := allocatedBy(inProcess)

	tc := startTestCluster(t, 2, func(_ int, wc *WorkerConfig) { wc.Logf = nil })
	onCluster := func() {
		res, err := tc.coord.Run(SpecFromConfig(spatial.Cascade, queryText, rels, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != tuples {
			t.Fatalf("cluster returned %d tuples, in-process %d", len(res.Tuples), tuples)
		}
	}
	onCluster() // warm: mesh buffers, the workers' relations
	clustered := allocatedBy(onCluster)
	ratio := float64(clustered) / float64(direct)
	t.Logf("%d tuples: in-process %d B, two-worker cluster %d B, ratio %.2f", tuples, direct, clustered, ratio)
	if tuples == 0 {
		t.Fatal("query produced no tuples; the ceiling would be vacuous")
	}
	if ratio > 4.5 {
		t.Errorf("two-worker cluster allocates %.2f × the in-process engine, ceiling 4.5", ratio)
	}
	if clustered > 6<<20 {
		t.Errorf("two-worker cluster allocates %d B, ceiling %d", clustered, 6<<20)
	}
}
