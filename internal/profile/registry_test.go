package profile

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/dfs"
	"mwsjoin/internal/metrics"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// The registry golden pins the Prometheus text a fixed set of runs
// leaves in a registry: testdata/registry_golden.prom holds every
// deterministic series after the four map-reduce methods fault-free,
// C-Rep once more and a resumed cascade. It was written
// by this file on the commit before Publish, when the engine, the DFS
// and the executor wrote the registry themselves as they ran — leaving
// out the two series that timed task attempts,
// mapreduce_{map,reduce}_task_micros, on which no two runs agree — and
// is frozen: Publish must reproduce every series it kept byte for byte,
// and the series it dropped are exactly deletedSeries. It was amended
// once, when the engine's combiner and spill went: their five
// mapreduce_{combine,spill}* series left the file, and the DFS and
// checkpoint byte totals fell by the two combine keys each checkpoint
// meta record no longer carries (45 bytes on a cascade step).
//
// MWSJ_WRITE_REGISTRY_GOLDEN=1 rewrites the file from the current code,
// which is only meaningful on a commit whose registry is the reference.

const registryGoldenFile = "testdata/registry_golden.prom"

// deletedSeries are the golden's series that Stats holds no source for,
// each with where its fact lives now.
var deletedSeries = map[string]string{
	"mapreduce_reducer_bytes": "Stats.IntermediateBytes, the sum over a job's reducers",
	"mapreduce_reducer_keys":  "a non-empty reducer has one key: the zero bucket of mapreduce_reducer_pairs",
	"spatial_cell_tuples":     "Stats.OutputTuples, the sum over a run's cells",
	"dfs_reads_total":         "Stats.DFS counts the bytes and records read, not the reads",
	"dfs_writes_total":        "Stats.DFS counts the bytes and records written, not the writes",
	"dfs_read_bytes":          "Stats.DFS.BytesRead, the sum over the reads",
	"dfs_write_bytes":         "Stats.DFS.BytesWritten, the sum over the writes",
}

// goldenRelations are three small uniform relations dense enough that
// every method shuffles, replicates and joins something on a 4×4 grid.
func goldenRelations(t *testing.T) []spatial.Relation {
	t.Helper()
	rels := make([]spatial.Relation, 3)
	for i := range rels {
		p := dataset.PaperDefaults(400)
		p.XMax, p.YMax = 1500, 1500
		rel, err := dataset.SyntheticRelation(string(rune('a'+i)), p, uint64(11+i))
		if err != nil {
			t.Fatal(err)
		}
		rels[i] = rel
	}
	return rels
}

// goldenRuns executes the golden's run set, each run publishing into
// reg. The killed run that precedes the resume publishes nothing.
func goldenRuns(t *testing.T, reg *metrics.Registry) {
	t.Helper()
	rels := goldenRelations(t)
	q, err := query.Parse("a ov b and b ra(20) c")
	if err != nil {
		t.Fatal(err)
	}
	part, err := spatial.DefaultPartitioning(rels, 16)
	if err != nil {
		t.Fatal(err)
	}
	base := spatial.Config{Part: part, NumMappers: 3, Parallelism: 2}
	run := func(m spatial.Method, cfg spatial.Config) {
		t.Helper()
		res, err := spatial.Execute(m, q, rels, cfg)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		Publish(reg, &res.Stats)
		if res.Stats.OutputTuples == 0 {
			t.Fatalf("%v: no output tuples; the golden would pin nothing", m)
		}
	}
	for _, m := range []spatial.Method{spatial.Cascade, spatial.AllReplicate, spatial.ControlledReplicate, spatial.ControlledReplicateLimit} {
		run(m, base)
	}
	// The golden's fifth run spilled every run of a C-Rep job; its
	// counters were a plain run's, which it now is.
	run(spatial.ControlledReplicate, base)

	fs := dfs.New(0)
	killed := base
	killed.FS = fs
	killed.FailJob = func(i int) bool { return i == 1 }
	if _, err := spatial.Execute(spatial.Cascade, q, rels, killed); err == nil {
		t.Fatal("the kill before job 1 did not fire")
	}
	resumed := base
	resumed.FS = fs
	resumed.Resume = true
	run(spatial.Cascade, resumed)
}

// promSeries splits Prometheus text into its series, one block per
// "# TYPE" line, in order.
func promSeries(text string) (names []string, blocks map[string]string) {
	blocks = map[string]string{}
	var cur string
	for _, line := range strings.SplitAfter(text, "\n") {
		if line == "" {
			continue
		}
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			cur = f[2]
			names = append(names, cur)
		}
		blocks[cur] += line
	}
	return names, blocks
}

func TestRegistryGolden(t *testing.T) {
	reg := metrics.NewRegistry()
	goldenRuns(t, reg)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	got := buf.String()
	if os.Getenv("MWSJ_WRITE_REGISTRY_GOLDEN") != "" {
		if err := os.WriteFile(registryGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", registryGoldenFile)
		return
	}
	want, err := os.ReadFile(registryGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	wantNames, wantBlocks := promSeries(string(want))
	gotNames, gotBlocks := promSeries(got)
	for _, n := range wantNames {
		_, deleted := deletedSeries[n]
		switch block, ok := gotBlocks[n]; {
		case deleted && ok:
			t.Errorf("deleted series %s is published", n)
		case !deleted && !ok:
			t.Errorf("series %s is not published", n)
		case !deleted && block != wantBlocks[n]:
			t.Errorf("series %s differs from %s:\n got %s\nwant %s", n, registryGoldenFile, block, wantBlocks[n])
		}
	}
	for _, n := range gotNames {
		if _, ok := wantBlocks[n]; !ok {
			t.Errorf("series %s is published but not in %s", n, registryGoldenFile)
		}
	}
	for n := range deletedSeries {
		if _, ok := wantBlocks[n]; !ok {
			t.Errorf("deleted series %s is not in %s", n, registryGoldenFile)
		}
	}
}

// TestPublishRetriedAttempts: a reduce attempt the fault injector
// discards leaves no trace in the registry. spatial_cell_candidates
// observes each non-empty join-round cell once, as Stats records it,
// however often its reducer ran.
func TestPublishRetriedAttempts(t *testing.T) {
	rels := goldenRelations(t)
	q, err := query.Parse("a ov b and b ov c")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []spatial.Method{spatial.Cascade, spatial.AllReplicate, spatial.ControlledReplicate} {
		reg := metrics.NewRegistry()
		res, err := spatial.Execute(m, q, rels, spatial.Config{
			Reducers: 16, MaxAttempts: 3,
			FailReduce: func(_, attempt int) bool { return attempt < 3 },
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		Publish(reg, &res.Stats)
		rounds := res.Stats.Rounds
		if m == spatial.ControlledReplicate {
			rounds = rounds[1:] // the mark round joins nothing
		}
		var cells, failures int64
		for _, r := range rounds {
			failures += r.ReduceFailures
			for _, n := range r.PairsPerReducer {
				if n > 0 {
					cells++
				}
			}
		}
		if failures == 0 {
			t.Fatalf("%v: no reduce attempt failed; the test proves nothing", m)
		}
		if got := reg.Snapshot().Histograms["spatial_cell_candidates"].Count; got != cells {
			t.Errorf("%v: spatial_cell_candidates counts %d cells, the join rounds have %d non-empty", m, got, cells)
		}
	}
}
