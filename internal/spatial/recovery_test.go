package spatial

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/mapreduce"
)

// mrMethods are the methods that run a job chain.
var mrMethods = []Method{Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit}

// normalizeRounds copies round stats with wall times zeroed — the only
// fields allowed to differ between a clean run and a resumed run (a
// resumed round reports the walls its original execution measured).
func normalizeRounds(rounds []*mapreduce.Stats) []mapreduce.Stats {
	out := make([]mapreduce.Stats, len(rounds))
	for i, r := range rounds {
		out[i] = *r
		out[i].MapWall, out[i].ReduceWall, out[i].TotalWall = 0, 0, 0
	}
	return out
}

// chainMetaFiles lists the chain checkpoint meta files present on the
// FS, in step order (the %03d index prefix makes lexical order step
// order).
func chainMetaFiles(fs *dfs.FS) []string {
	var metas []string
	for _, name := range fs.List() {
		if strings.HasPrefix(name, "chk/") && strings.HasSuffix(name, ".meta") {
			metas = append(metas, name)
		}
	}
	return metas
}

func dfsDelta(after, before dfs.Stats) dfs.Stats {
	return dfs.Stats{
		BytesWritten:   after.BytesWritten - before.BytesWritten,
		BytesRead:      after.BytesRead - before.BytesRead,
		RecordsWritten: after.RecordsWritten - before.RecordsWritten,
		RecordsRead:    after.RecordsRead - before.RecordsRead,
	}
}

// TestKillResumeEveryJobBoundary is the tentpole acceptance test: for
// every method and every job boundary k, a run killed before job k and
// resumed on the same FS produces a bit-identical final output, with
// the only Stats deltas being the documented checkpoint accounting.
// The DFS cost of kill+resume reconciles exactly against the clean run:
// nothing is written twice, and the only extra reads are one meta
// record per resumed job.
func TestKillResumeEveryJobBoundary(t *testing.T) {
	part := grid2x2(t)
	q := chain4()
	rels := figure4Relations()

	for _, m := range mrMethods {
		cleanFS := dfs.New(0)
		clean, err := Execute(m, q, rels, Config{Part: part, FS: cleanFS})
		if err != nil {
			t.Fatalf("%v: clean run: %v", m, err)
		}
		if clean.Stats.Chain == nil {
			t.Fatalf("%v: clean run reports no chain stats", m)
		}
		cleanIO := cleanFS.Stats()
		jobs := int(clean.Stats.Chain.Jobs)
		if clean.Stats.Chain.JobsRun != int64(jobs) || clean.Stats.Chain.ResumedJobs != 0 {
			t.Fatalf("%v: clean chain stats = %+v", m, clean.Stats.Chain)
		}

		for k := 0; k < jobs; k++ {
			fs := dfs.New(0)
			_, err := Execute(m, q, rels, Config{Part: part, FS: fs,
				FailJob: func(i int) bool { return i == k }})
			var killed *mapreduce.ChainKilledError
			if !errors.As(err, &killed) {
				t.Fatalf("%v k=%d: killed run: err = %v, want ChainKilledError", m, k, err)
			}
			if killed.Job != k {
				t.Errorf("%v k=%d: killed before job %d", m, k, killed.Job)
			}
			killedIO := fs.Stats()
			// The checkpoints the killed run left behind are exactly the
			// completed checkpointing jobs before k.
			metas := chainMetaFiles(fs)
			var metaBytes int64
			for _, name := range metas {
				b, _, err := fs.Size(name)
				if err != nil {
					t.Fatal(err)
				}
				metaBytes += b
			}

			res, err := Execute(m, q, rels, Config{Part: part, FS: fs, Resume: true})
			if err != nil {
				t.Fatalf("%v k=%d: resume: %v", m, k, err)
			}
			// Bit-identical final output, in order.
			if !reflect.DeepEqual(res.Tuples, clean.Tuples) {
				t.Errorf("%v k=%d: resumed tuples differ from clean run", m, k)
			}
			cs := res.Stats.Chain
			if cs == nil {
				t.Fatalf("%v k=%d: resumed run reports no chain stats", m, k)
			}
			if cs.Jobs != int64(jobs) || cs.ResumedJobs != int64(len(metas)) ||
				cs.JobsRun != int64(jobs-len(metas)) {
				t.Errorf("%v k=%d: resume chain stats = %+v (want %d jobs, %d resumed)",
					m, k, cs, jobs, len(metas))
			}
			// Per-round engine stats identical modulo walls, and the
			// replication counters derived from them unchanged.
			if !reflect.DeepEqual(normalizeRounds(res.Stats.Rounds), normalizeRounds(clean.Stats.Rounds)) {
				t.Errorf("%v k=%d: resumed round stats differ from clean run", m, k)
			}
			if res.Stats.RectanglesReplicated != clean.Stats.RectanglesReplicated ||
				res.Stats.RectanglesAfterReplication != clean.Stats.RectanglesAfterReplication ||
				res.Stats.ReplicationCopies != clean.Stats.ReplicationCopies ||
				res.Stats.OutputTuples != clean.Stats.OutputTuples {
				t.Errorf("%v k=%d: resumed replication counters differ from clean run", m, k)
			}

			// DFS reconciliation: kill+resume writes what clean writes,
			// and reads clean's reads plus one meta per resumed job.
			resumeIO := dfsDelta(fs.Stats(), killedIO)
			if got, want := killedIO.BytesWritten+resumeIO.BytesWritten, cleanIO.BytesWritten; got != want {
				t.Errorf("%v k=%d: kill+resume wrote %d bytes, clean wrote %d", m, k, got, want)
			}
			if got, want := killedIO.RecordsWritten+resumeIO.RecordsWritten, cleanIO.RecordsWritten; got != want {
				t.Errorf("%v k=%d: kill+resume wrote %d records, clean wrote %d", m, k, got, want)
			}
			if got, want := killedIO.BytesRead+resumeIO.BytesRead, cleanIO.BytesRead+metaBytes; got != want {
				t.Errorf("%v k=%d: kill+resume read %d bytes, want clean %d + resumed metas %d",
					m, k, got, cleanIO.BytesRead, metaBytes)
			}
			if got, want := killedIO.RecordsRead+resumeIO.RecordsRead, cleanIO.RecordsRead+int64(len(metas)); got != want {
				t.Errorf("%v k=%d: kill+resume read %d records, want clean %d + %d metas",
					m, k, got, cleanIO.RecordsRead, len(metas))
			}
		}
	}
}

// TestColumnarKillResume kills a chain before its last job and resumes
// it on an FS restored from a snapshot of the killed one, whose staged
// relations and checkpoints come back as files read from outside the
// process: the readers must decode them, not restage. The final output
// must be bit-identical to a clean run's.
// (TestKillResumeEveryJobBoundary resumes every boundary on the same
// FS.)
func TestColumnarKillResume(t *testing.T) {
	part := grid2x2(t)
	q := chain4()
	rels := figure4Relations()

	for _, m := range mrMethods {
		clean, err := Execute(m, q, rels, Config{Part: part, FS: dfs.New(0)})
		if err != nil {
			t.Fatalf("%v: clean run: %v", m, err)
		}
		last := int(clean.Stats.Chain.Jobs) - 1
		fs := dfs.New(0)
		_, err = Execute(m, q, rels, Config{Part: part, FS: fs,
			FailJob: func(i int) bool { return i == last }})
		var killed *mapreduce.ChainKilledError
		if !errors.As(err, &killed) {
			t.Fatalf("%v: killed run: err = %v, want ChainKilledError", m, err)
		}
		var img bytes.Buffer
		if err := fs.WriteSnapshot(&img); err != nil {
			t.Fatal(err)
		}
		if fs, err = dfs.ReadSnapshot(&img, 0); err != nil {
			t.Fatal(err)
		}
		res, err := Execute(m, q, rels, Config{Part: part, FS: fs, Resume: true})
		if err != nil {
			t.Fatalf("%v: resume: %v", m, err)
		}
		if !reflect.DeepEqual(res.Tuples, clean.Tuples) {
			t.Errorf("%v: resumed tuples differ from the clean run", m)
		}
		if cs := res.Stats.Chain; cs == nil || cs.ResumedJobs != int64(last) {
			t.Errorf("%v: resume chain stats = %+v, want %d resumed", m, cs, last)
		}
	}
}

// TestKillResumeRandomizedWorkload repeats the boundary check on a
// denser random workload for the cascade (the longest chain), where
// later rounds carry real intermediate partials through checkpoints.
func TestKillResumeRandomizedWorkload(t *testing.T) {
	part := testGrid(t, 4, 100)
	rng := rand.New(rand.NewPCG(7, 2013))
	rels := randomRelations(rng, 4, 30, 100, 15)
	q := chain4()

	cleanFS := dfs.New(0)
	clean, err := Execute(Cascade, q, rels, Config{Part: part, FS: cleanFS})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Tuples) == 0 {
		t.Fatal("random workload produced no tuples — test is vacuous")
	}
	jobs := int(clean.Stats.Chain.Jobs)
	for k := 0; k < jobs; k++ {
		fs := dfs.New(0)
		_, err := Execute(Cascade, q, rels, Config{Part: part, FS: fs,
			FailJob: func(i int) bool { return i == k }})
		var killed *mapreduce.ChainKilledError
		if !errors.As(err, &killed) {
			t.Fatalf("k=%d: err = %v, want ChainKilledError", k, err)
		}
		res, err := Execute(Cascade, q, rels, Config{Part: part, FS: fs, Resume: true})
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		if !reflect.DeepEqual(res.Tuples, clean.Tuples) {
			t.Errorf("k=%d: resumed tuples differ from clean run", k)
		}
		if res.Stats.Chain.ResumedJobs != int64(k) {
			t.Errorf("k=%d: resumed %d jobs", k, res.Stats.Chain.ResumedJobs)
		}
	}
}
