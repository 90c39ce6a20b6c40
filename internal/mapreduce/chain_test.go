package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mwsjoin/internal/dfs"
)

// testChainSteps builds a deterministic 3-step synthetic chain over
// cfg's FS: step i transforms its input records by appending byte i
// and adds one fresh record of the same length, i+1 bytes of 100+i, so
// the final output encodes exactly which steps ran and in what order. calls[i] counts how often step i's
// closure actually executed (0 for resumed steps).
func runTestChain(t *testing.T, cfg ChainConfig, calls *[3]int) ([][]byte, ChainStats, error) {
	t.Helper()
	ch := NewChain(cfg)
	mkStats := func(i int) *Stats {
		return &Stats{
			Job:               fmt.Sprintf("job-%d", i),
			IntermediatePairs: int64(10 * (i + 1)),
			PairsPerReducer:   []int64{int64(i), int64(i + 1)},
		}
	}
	for i := 0; i < 3; i++ {
		i := i
		_, err := ch.Step(fmt.Sprintf("s%d", i), func(in *dfs.View) (dfs.Segments, *Stats, error) {
			calls[i]++
			if i == 0 && in != nil {
				t.Errorf("step 0 received non-nil input %v", in)
			}
			var out []byte
			for _, rec := range viewRecords(t, in) {
				out = append(append(out, rec...), byte(i))
			}
			out = append(out, bytes.Repeat([]byte{byte(100 + i)}, i+1)...)
			return dfs.Segments{Stride: i + 1, Segs: [][]byte{out}}, mkStats(i), nil
		})
		if err != nil {
			return nil, ch.Stats(), err
		}
	}
	out, err := ch.Output()
	return viewRecords(t, out), ch.Stats(), err
}

// viewRecords copies every record out of a checkpoint view (nil for
// the empty view).
func viewRecords(t *testing.T, v *dfs.View) [][]byte {
	t.Helper()
	var recs [][]byte
	if err := v.Records(0, v.Len(), func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestChainCleanRun(t *testing.T) {
	fs := dfs.New(0)
	var calls [3]int
	out, cs, err := runTestChain(t, ChainConfig{Name: "t", FS: fs}, &calls)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{{100, 1, 2}, {101, 101, 2}, {102, 102, 102}}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("output = %v, want %v", out, want)
	}
	if calls != [3]int{1, 1, 1} {
		t.Errorf("step calls = %v, want all 1", calls)
	}
	if cs.Jobs != 3 || cs.JobsRun != 3 || cs.ResumedJobs != 0 {
		t.Errorf("chain stats = %+v", cs)
	}
	// Every checkpoint and meta file exists under chk/<Name>.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("chk/t/%03d-s%d", i, i)
		if !fs.Exists(name) || !fs.Exists(name+".meta") {
			t.Errorf("checkpoint %q (or its meta) missing", name)
		}
	}
	// The chain's own byte counters reconcile with the DFS counters:
	// chain checkpoints are the only traffic on this FS.
	st := fs.Stats()
	if cs.CheckpointBytesWritten != st.BytesWritten {
		t.Errorf("CheckpointBytesWritten = %d, fs wrote %d", cs.CheckpointBytesWritten, st.BytesWritten)
	}
	if cs.CheckpointBytesRead != st.BytesRead {
		t.Errorf("CheckpointBytesRead = %d, fs read %d", cs.CheckpointBytesRead, st.BytesRead)
	}
}

// metaBytes sums the sizes of the meta records of checkpoints 0..k-1,
// the documented extra read cost of resuming past k completed jobs.
func metaBytes(t *testing.T, fs *dfs.FS, chain string, k int) int64 {
	t.Helper()
	var total int64
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("chk/%s/%03d-s%d.meta", chain, i, i)
		b, _, err := fs.Size(name)
		if err != nil {
			t.Fatal(err)
		}
		total += b
	}
	return total
}

// TestChainKillResumeEveryBoundary kills a chain before every job
// boundary and resumes it; the kill points are deterministic, so a
// failure reproduces.
func TestChainKillResumeEveryBoundary(t *testing.T) {
	// Reference: a clean run on its own FS.
	cleanFS := dfs.New(0)
	var cleanCalls [3]int
	cleanOut, _, err := runTestChain(t, ChainConfig{Name: "t", FS: cleanFS}, &cleanCalls)
	if err != nil {
		t.Fatal(err)
	}
	cleanIO := cleanFS.Stats()

	for k := 0; k < 3; k++ {
		fs := dfs.New(0)
		var calls [3]int
		_, killedStats, err := runTestChain(t, ChainConfig{
			Name: "t", FS: fs,
			FailJob: func(i int) bool { return i == k },
		}, &calls)
		var killed *ChainKilledError
		if !errors.As(err, &killed) {
			t.Fatalf("k=%d: err = %v, want ChainKilledError", k, err)
		}
		if killed.Chain != "t" || killed.Job != k || killed.Step != fmt.Sprintf("s%d", k) {
			t.Errorf("k=%d: kill = %+v", k, killed)
		}
		if !strings.Contains(killed.Error(), "resume") {
			t.Errorf("k=%d: error %q does not mention resume", k, killed)
		}
		if killedStats.JobsRun != int64(k) {
			t.Errorf("k=%d: killed run executed %d jobs, want %d", k, killedStats.JobsRun, k)
		}
		for i := 0; i < 3; i++ {
			want := 0
			if i < k {
				want = 1
			}
			if calls[i] != want {
				t.Errorf("k=%d: step %d ran %d times in killed run, want %d", k, i, calls[i], want)
			}
		}
		killedIO := fs.Stats()

		// Resume on the same FS: completed jobs are skipped, the output
		// is bit-identical to the clean run's.
		var resumeCalls [3]int
		out, cs, err := runTestChain(t, ChainConfig{Name: "t", FS: fs, Resume: true}, &resumeCalls)
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		if !reflect.DeepEqual(out, cleanOut) {
			t.Errorf("k=%d: resumed output %v differs from clean %v", k, out, cleanOut)
		}
		if cs.Jobs != 3 || cs.ResumedJobs != int64(k) || cs.JobsRun != int64(3-k) {
			t.Errorf("k=%d: resume chain stats = %+v", k, cs)
		}
		for i := 0; i < 3; i++ {
			want := 0
			if i >= k {
				want = 1
			}
			if resumeCalls[i] != want {
				t.Errorf("k=%d: step %d ran %d times in resume run, want %d", k, i, resumeCalls[i], want)
			}
		}

		// The recovery cost is exactly the documented checkpoint
		// accounting: kill+resume write what a clean run writes (nothing
		// is written twice), and read the clean run's reads plus one
		// meta record per skipped job.
		resumeIO := statsMinus(fs.Stats(), killedIO)
		if got, want := killedIO.BytesWritten+resumeIO.BytesWritten, cleanIO.BytesWritten; got != want {
			t.Errorf("k=%d: kill+resume wrote %d bytes, clean wrote %d", k, got, want)
		}
		if got, want := killedIO.BytesRead+resumeIO.BytesRead, cleanIO.BytesRead+metaBytes(t, fs, "t", k); got != want {
			t.Errorf("k=%d: kill+resume read %d bytes, want clean %d + skipped metas %d",
				k, got, cleanIO.BytesRead, metaBytes(t, fs, "t", k))
		}
	}
}

func statsMinus(after, before dfs.Stats) dfs.Stats {
	return dfs.Stats{
		BytesWritten:   after.BytesWritten - before.BytesWritten,
		BytesRead:      after.BytesRead - before.BytesRead,
		RecordsWritten: after.RecordsWritten - before.RecordsWritten,
		RecordsRead:    after.RecordsRead - before.RecordsRead,
	}
}

// TestChainResumedStatsRoundTrip: a resumed step returns the Stats its
// original run recorded, surviving the JSON meta round trip exactly
// (all fields are integers).
func TestChainResumedStatsRoundTrip(t *testing.T) {
	fs := dfs.New(0)
	orig := &Stats{Job: "j", IntermediatePairs: 42, IntermediateBytes: 999,
		ReduceInputKeys: 7, PairsPerReducer: []int64{40, 2}, MapAttempts: 3,
		MapWall: time.Second, TotalWall: 2 * time.Second}
	ch := NewChain(ChainConfig{Name: "rt", FS: fs})
	if _, err := ch.Step("s0", func(_ *dfs.View) (dfs.Segments, *Stats, error) {
		return dfs.Segments{Stride: 1, Segs: [][]byte{{1}}}, orig, nil
	}); err != nil {
		t.Fatal(err)
	}
	ch2 := NewChain(ChainConfig{Name: "rt", FS: fs, Resume: true})
	st, err := ch2.Step("s0", func(_ *dfs.View) (dfs.Segments, *Stats, error) {
		t.Fatal("resumed step must not run")
		return dfs.Segments{}, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Everything survives the JSON round trip except wall times, which
	// the meta record deliberately drops (nondeterministic length).
	want := *orig
	want.MapWall, want.ReduceWall, want.TotalWall = 0, 0, 0
	if !reflect.DeepEqual(st, &want) {
		t.Errorf("resumed stats = %+v, want %+v", st, &want)
	}
	// Output works when every step was resumed.
	out, err := ch2.Output()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viewRecords(t, out), [][]byte{{1}}) {
		t.Errorf("output after full resume = %v", out)
	}
}

// TestChainFinalStepNeverResumed: FinalSteps commit nothing, so a
// resume re-runs them even when a completed chain left every Step
// checkpoint behind.
func TestChainFinalStepNeverResumed(t *testing.T) {
	fs := dfs.New(0)
	run := func(resume bool) (stepRan, finalRan int) {
		ch := NewChain(ChainConfig{Name: "f", FS: fs, Resume: resume})
		if _, err := ch.Step("s0", func(_ *dfs.View) (dfs.Segments, *Stats, error) {
			stepRan++
			return dfs.Segments{Stride: 1, Segs: [][]byte{{7}}}, &Stats{}, nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := ch.FinalStep("final", func(in *dfs.View) (*Stats, error) {
			finalRan++
			if got := viewRecords(t, in); !reflect.DeepEqual(got, [][]byte{{7}}) {
				t.Errorf("final step input = %v", got)
			}
			return &Stats{}, nil
		}); err != nil {
			t.Fatal(err)
		}
		return stepRan, finalRan
	}
	if s, f := run(false); s != 1 || f != 1 {
		t.Fatalf("clean run: step %d final %d", s, f)
	}
	if s, f := run(true); s != 0 || f != 1 {
		t.Fatalf("resume run: step ran %d times (want 0), final %d (want 1)", s, f)
	}
}

// TestChainResumesPrefixOnly: a chain resumes its committed prefix and
// nothing past it. With checkpoints for steps 0 and 2 but not 1, step 0
// is resumed and steps 1 and 2 run, so step 2 reads what step 1 wrote,
// not a checkpoint of some other run.
func TestChainResumesPrefixOnly(t *testing.T) {
	fs := dfs.New(0)
	var calls [3]int
	cleanOut, _, err := runTestChain(t, ChainConfig{Name: "t", FS: fs}, &calls)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"chk/t/001-s1", "chk/t/001-s1" + metaSuffix} {
		if err := fs.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
	calls = [3]int{}
	out, cs, err := runTestChain(t, ChainConfig{Name: "t", FS: fs, Resume: true}, &calls)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, cleanOut) {
		t.Errorf("output = %v, want %v", out, cleanOut)
	}
	if calls != [3]int{0, 1, 1} || cs.ResumedJobs != 1 || cs.JobsRun != 2 {
		t.Errorf("step calls %v, chain stats %+v; want step 0 resumed and steps 1 and 2 run", calls, cs)
	}
}

// committedChain returns a resuming chain over a fresh FS on which an
// earlier run of it committed steps 0..k-1.
func committedChain(t testing.TB, name string, k int) *Chain {
	t.Helper()
	fs := dfs.New(0)
	ch := NewChain(ChainConfig{Name: name, FS: fs})
	for i := 0; i < k; i++ {
		if _, err := ch.Step(fmt.Sprintf("s%d", i), func(*dfs.View) (dfs.Segments, *Stats, error) {
			return dfs.Segments{Stride: 1, Segs: [][]byte{{byte(i)}}}, &Stats{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return NewChain(ChainConfig{Name: name, FS: fs, Resume: true})
}

// TestChainAgreeResume: two workers that committed three steps, and
// steps 0 and 2 only, agree on a prefix of one step; each deletes its
// checkpoints past it, data and meta, and keeps the rest. A peer's
// payload that is not one shortest-form uvarint fails the agreement
// with an error naming the chain and the worker.
func TestChainAgreeResume(t *testing.T) {
	chains := []*Chain{committedChain(t, "a", 3), committedChain(t, "a", 3)}
	for _, name := range []string{"chk/a/001-s1", "chk/a/001-s1" + metaSuffix} {
		if err := chains[1].cfg.FS.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
	hub := newChanHub(2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for self, ch := range chains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[self] = ch.AgreeResume(&DistConfig{NumWorkers: 2, Self: self, Exchanger: hub.exchanger(self)})
		}()
	}
	wg.Wait()
	for self, ch := range chains {
		if errs[self] != nil {
			t.Fatalf("worker %d: %v", self, errs[self])
		}
		if got, want := ch.cfg.FS.List(), []string{"chk/a/000-s0", "chk/a/000-s0" + metaSuffix}; !reflect.DeepEqual(got, want) {
			t.Errorf("worker %d keeps %v, want %v", self, got, want)
		}
	}

	for _, c := range []struct {
		forged []byte
		want   string
	}{
		{nil, "truncated varint"},
		{[]byte{0x81, 0x00}, "overlong varint"},
		{uv(1, 0), "1 bytes after the resume prefix"},
	} {
		d := &DistConfig{NumWorkers: 2, Self: 0, Exchanger: &forgingExchanger{forged: map[string][]byte{"resume-prefix": c.forged}}}
		err := committedChain(t, "a", 1).AgreeResume(d)
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), `chain "a"`) || !strings.Contains(err.Error(), "worker 1") {
			t.Errorf("forged prefix %x: err = %v, want %q naming the chain and worker 1", c.forged, err, c.want)
		}
	}
}

func TestChainValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewChain with nil FS must panic")
		}
	}()

	fs := dfs.New(0)
	// Resuming against a mismatched checkpoint layout fails loudly.
	ch := NewChain(ChainConfig{Name: "v", FS: fs})
	if _, err := ch.Step("alpha", func(_ *dfs.View) (dfs.Segments, *Stats, error) {
		return dfs.Segments{Stride: 1, Segs: [][]byte{{1}}}, &Stats{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Same chain name, different step name at index 0: the file names
	// differ, so the checkpoint is simply absent and the step re-runs —
	// but a truncated data file against an intact meta is an error.
	if err := fs.Delete("chk/v/000-alpha"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteSegments("chk/v/000-alpha", dfs.Segments{Stride: 1, Segs: [][]byte{{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	ch2 := NewChain(ChainConfig{Name: "v", FS: fs, Resume: true})
	_, err := ch2.Step("alpha", func(_ *dfs.View) (dfs.Segments, *Stats, error) {
		return dfs.Segments{}, nil, fmt.Errorf("should not run")
	})
	if err == nil || !strings.Contains(err.Error(), "use a fresh FS") {
		t.Errorf("record-count mismatch: err = %v", err)
	}

	// Stepping after a kill is a chain-state error.
	ch3 := NewChain(ChainConfig{Name: "k", FS: fs, FailJob: func(int) bool { return true }})
	if _, err := ch3.Step("s", func(_ *dfs.View) (dfs.Segments, *Stats, error) {
		return dfs.Segments{}, &Stats{}, nil
	}); err == nil {
		t.Fatal("expected kill")
	}
	if _, err := ch3.Step("s2", func(_ *dfs.View) (dfs.Segments, *Stats, error) {
		return dfs.Segments{}, &Stats{}, nil
	}); err == nil || !strings.Contains(err.Error(), "after kill") {
		t.Errorf("step after kill: err = %v", err)
	}

	// Output before any checkpointed step is an error.
	ch4 := NewChain(ChainConfig{Name: "o", FS: fs})
	if _, err := ch4.Output(); err == nil {
		t.Error("Output on empty chain must fail")
	}

	NewChain(ChainConfig{Name: "nilfs"}) // panics; recovered above
}

// TestChainObservability: ChainStats is the chain's record of what
// recovery cost, so a fully resumed chain's checkpoint reads are exactly
// the DFS bytes and records it read.
func TestChainObservability(t *testing.T) {
	fs := dfs.New(0)
	var calls [3]int
	if _, _, err := runTestChain(t, ChainConfig{Name: "t", FS: fs}, &calls); err != nil {
		t.Fatal(err)
	}

	before := fs.Stats()
	var resumeCalls [3]int
	_, cs, err := runTestChain(t, ChainConfig{Name: "t", FS: fs, Resume: true}, &resumeCalls)
	if err != nil {
		t.Fatal(err)
	}
	if cs.ResumedJobs != 3 {
		t.Fatalf("resumed jobs = %d, want 3", cs.ResumedJobs)
	}
	after := fs.Stats()
	if read := after.BytesRead - before.BytesRead; cs.CheckpointBytesRead != read {
		t.Errorf("checkpoint bytes read = %d, the DFS read %d", cs.CheckpointBytesRead, read)
	}
	if read := after.RecordsRead - before.RecordsRead; cs.CheckpointRecordsRead != read {
		t.Errorf("checkpoint records read = %d, the DFS read %d", cs.CheckpointRecordsRead, read)
	}
	if after.BytesWritten != before.BytesWritten || cs.CheckpointBytesWritten != 0 {
		t.Errorf("a fully resumed chain wrote %d DFS bytes, %d checkpoint bytes", after.BytesWritten-before.BytesWritten, cs.CheckpointBytesWritten)
	}
}

// writeResumableStep commits one checkpointing step "s0" of chain "m"
// on a fresh FS and returns the FS and the checkpoint's meta file.
func writeResumableStep(t testing.TB) (*dfs.FS, string) {
	t.Helper()
	fs := dfs.New(0)
	ch := NewChain(ChainConfig{Name: "m", FS: fs})
	if _, err := ch.Step("s0", func(_ *dfs.View) (dfs.Segments, *Stats, error) {
		return dfs.Segments{Stride: 1, Segs: [][]byte{{1, 2}}}, &Stats{Job: "s0", PairsPerReducer: []int64{2}}, nil
	}); err != nil {
		t.Fatal(err)
	}
	return fs, "chk/m/000-s0" + metaSuffix
}

// resumeStep resumes step "s0" of chain "m" on fs; the step must not run.
func resumeStep(t testing.TB, fs *dfs.FS) (*Stats, error) {
	t.Helper()
	ch := NewChain(ChainConfig{Name: "m", FS: fs, Resume: true})
	return ch.Step("s0", func(_ *dfs.View) (dfs.Segments, *Stats, error) {
		return dfs.Segments{}, nil, fmt.Errorf("resumed step ran")
	})
}

// TestResumeRejectsMetaWithoutStats: a checkpoint meta file that is not
// exactly one record carrying the step's stats — which no chain writes,
// but a snapshot file can hold — fails the
// resume with an error naming the chain, the job and the file, instead
// of resuming as a success with a nil round.
func TestResumeRejectsMetaWithoutStats(t *testing.T) {
	for name, recs := range map[string][][]byte{
		"no stats":    {[]byte(`{"step":0,"name":"s0","records":2}`)},
		"null stats":  {[]byte(`{"step":0,"name":"s0","records":2,"stats":null}`)},
		"no record":   {},
		"two records": {[]byte(`{"step":0,"name":"s0","records":2,"stats":{}}`), []byte(`{"step":0,"name":"s0","records":2,"stats":{}}`)},
	} {
		fs, meta := writeResumableStep(t)
		writeMeta(t, fs, meta, recs)
		st, err := resumeStep(t, fs)
		if err == nil {
			t.Errorf("%s: resume succeeded with stats %+v", name, st)
			continue
		}
		for _, want := range []string{`chain "m"`, "job 0", meta} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %s", name, err, want)
			}
		}
	}
}

// writeMeta replaces a checkpoint's meta file with records, all of the
// first one's length.
func writeMeta(t testing.TB, fs *dfs.FS, meta string, recs [][]byte) {
	t.Helper()
	if err := fs.Delete(meta); err != nil {
		t.Fatal(err)
	}
	stride := 1
	if len(recs) > 0 {
		stride = len(recs[0])
	}
	if err := fs.WriteSegments(meta, dfs.Segments{Stride: stride, Segs: [][]byte{bytes.Join(recs, nil)}}); err != nil {
		t.Fatal(err)
	}
}

// FuzzResumeMeta: whatever bytes stand in a checkpoint's meta file —
// cut into records of its first line's length, newline included, and a
// short tail dropped — resuming the step returns an error or non-nil
// Stats, and never panics.
func FuzzResumeMeta(f *testing.F) {
	f.Add([]byte(`{"step":0,"name":"s0","records":2,"stats":{"Job":"s0"}}`))
	f.Add([]byte(`{"step":0,"name":"s0","records":2}`))
	f.Add([]byte(`{"step":0,"name":"s0","records":2,"stats":{}}` + "\n" + `{"step":0,"name":"s0","records":2,"stats":{}}` + "\n"))
	f.Add([]byte(`{"step":0,"name":"s0","records":2,"stats":{"PairsPerReducer":[1,-1]}}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, meta := writeResumableStep(t)
		var recs [][]byte
		stride := bytes.IndexByte(data, '\n') + 1
		if stride == 0 {
			stride = len(data)
		}
		for ; stride > 0 && len(data) >= stride; data = data[stride:] {
			recs = append(recs, data[:stride])
		}
		writeMeta(t, fs, meta, recs)
		if st, err := resumeStep(t, fs); err == nil && st == nil {
			t.Fatalf("meta %q resumed with nil stats", data)
		}
	})
}
