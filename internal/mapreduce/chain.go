package mapreduce

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"mwsjoin/internal/dfs"
)

// Chain runs a sequence of dependent jobs with Hadoop-style chain-level
// fault tolerance: each checkpointing step's output records are
// materialised on the simulated DFS together with a small meta record
// (the step's name and Stats — the analogue of Hadoop's _SUCCESS marker
// plus job-history file), so a chain killed between jobs can be resumed
// on the same FS, skipping every completed job and re-reading only its
// last checkpoint.
//
// Data flows between steps exclusively through the DFS: a step's output
// is written at step end and read back at the start of the next step
// (or by Output for the last one), so a clean chain charges exactly the
// write-then-read cost the paper's §6.4 attributes to cascaded jobs,
// and a resumed chain charges exactly the checkpoint re-read.
//
// Deterministic kill points are injected with ChainConfig.FailJob:
// before running job i, FailJob(i) == true aborts the chain with a
// *ChainKilledError, leaving the checkpoints of jobs 0..i-1 on the FS.
type Chain struct {
	cfg   ChainConfig
	stats ChainStats
	// next is the index the next Step/FinalStep call receives.
	next int
	// pending names the checkpoint file holding the next step's input
	// ("" delivers nil, which only the first step sees).
	pending string
	// last names the most recent checkpoint, the file Output reads.
	last   string
	killed bool
}

// ChainConfig configures a job chain.
type ChainConfig struct {
	// Name identifies the chain in errors and names the DFS directory
	// of its checkpoint files, "chk/<Name>".
	Name string
	// FS holds the chain's checkpoints. Required; resuming requires
	// the same FS contents the killed run left behind.
	FS *dfs.FS
	// Resume skips the chain's committed prefix: each checkpointing step
	// whose checkpoint is already complete on the FS, charging only its
	// meta-record read, up to the first step that runs. That step
	// re-reads its predecessor's checkpoint, and it and every step after
	// it run, whatever checkpoints the FS holds for them.
	Resume bool
	// FailJob, when non-nil, is consulted before running job i;
	// returning true kills the chain with a *ChainKilledError. Steps
	// skipped by Resume are never consulted (their job does not run).
	FailJob func(jobIndex int) bool
	// Context, when non-nil, cancels the chain cooperatively: it is
	// checked as each step begins, so a cancelled chain stops at the
	// next job boundary — the pending step never runs, its checkpoint
	// input is never read, and no further DFS or shuffle accounting is
	// charged. The same context should also be passed to each step's
	// job Config so an in-flight job aborts at its next task boundary.
	Context context.Context
	// OnStep, when non-nil, is called as each step (job) of the chain
	// begins — including steps about to be skipped by Resume — with the
	// step's chain index and name. Servers use it to publish per-job
	// progress; it must be safe for whatever concurrency the caller's
	// progress sink needs.
	OnStep func(jobIndex int, name string)
}

// ChainStats counts what a chain did. Checkpoint counters include the
// meta records, so a resumed run's read counters are exactly the
// recovery cost it paid.
type ChainStats struct {
	Jobs        int64 // steps declared (run + resumed)
	JobsRun     int64 // steps whose job actually executed
	ResumedJobs int64 // steps skipped because their checkpoint was complete

	CheckpointBytesWritten   int64
	CheckpointBytesRead      int64
	CheckpointRecordsWritten int64
	CheckpointRecordsRead    int64
}

// ChainKilledError reports a deterministic FailJob kill. The
// checkpoints of all completed jobs remain on the FS, so re-running the
// chain on the same FS with Resume continues from job Job.
type ChainKilledError struct {
	Chain string
	Job   int
	Step  string
}

func (e *ChainKilledError) Error() string {
	return fmt.Sprintf("mapreduce: chain %q killed before job %d (%s); completed checkpoints remain for resume", e.Chain, e.Job, e.Step)
}

// CheckpointMetaError reports a checkpoint meta file a chain cannot
// have written: not exactly one record, not JSON, or without the step's
// Stats. Checkpoints also arrive from snapshot files, so resuming
// validates the meta instead of trusting it.
type CheckpointMetaError struct {
	Chain string
	Job   int
	File  string
	Err   error
}

func (e *CheckpointMetaError) Error() string {
	return fmt.Sprintf("mapreduce: chain %q: checkpoint meta %q for job %d: %v", e.Chain, e.File, e.Job, e.Err)
}

func (e *CheckpointMetaError) Unwrap() error { return e.Err }

// chainMeta is the JSON meta record committed next to each checkpoint.
// All Stats fields are integers, so the round trip is exact.
type chainMeta struct {
	Step    int    `json:"step"`
	Name    string `json:"name"`
	Records int64  `json:"records"`
	Stats   *Stats `json:"stats"`
}

// NewChain creates a chain. It panics on a nil FS — checkpoints are the
// entire point of a chain, so running without a file system is a
// programming error, not a runtime condition.
func NewChain(cfg ChainConfig) *Chain {
	if cfg.FS == nil {
		panic("mapreduce: NewChain requires a dfs.FS")
	}
	return &Chain{cfg: cfg}
}

// Stats returns a snapshot of the chain's counters.
func (c *Chain) Stats() ChainStats { return c.stats }

// Step runs one checkpointing job of the chain: run receives a view of
// the previous step's checkpoint file (nil, the empty view, for the
// first step), already charged as one whole-file read — its records are
// immutable, so the step's map tasks may read their own splits of it —
// and returns the step's output records, as segments of one stride,
// plus the job's Stats. The output is committed to the DFS before Step
// returns. The chain takes ownership of the returned segments and of the slice
// holding them: they become the checkpoint file without a copy, so run
// must not reuse or mutate either after returning.
//
// Under Resume, a step of the committed prefix — its checkpoint and
// every earlier one complete — is skipped entirely: run is not called,
// none of its input is read, and the Stats recorded in its meta file
// are returned instead.
func (c *Chain) Step(name string, run func(in *dfs.View) (out dfs.Segments, st *Stats, err error)) (*Stats, error) {
	i, err := c.begin(name)
	if err != nil {
		return nil, err
	}
	file := c.checkpointFile(i, name)
	if c.cfg.Resume {
		st, ok, err := c.tryResume(i, name, file)
		if err != nil {
			return nil, err
		}
		if ok {
			c.pending, c.last = file, file
			return st, nil
		}
	}
	// The committed prefix ends at the first step that runs.
	c.cfg.Resume = false
	if err := c.maybeKill(i, name); err != nil {
		return nil, err
	}
	in, err := c.openPending()
	if err != nil {
		return nil, err
	}
	out, st, err := run(in)
	if err != nil {
		return nil, err
	}
	if err := c.writeCheckpoint(i, name, file, out, st); err != nil {
		return nil, err
	}
	c.stats.JobsRun++
	c.pending, c.last = file, file
	return st, nil
}

// FinalStep runs one non-checkpointing job: run receives the previous
// checkpoint's view but its own output stays in memory (captured by
// the caller), mirroring a terminal job whose result is consumed
// directly. Because nothing is committed, a FinalStep is never skipped
// by Resume — it re-runs on every resume, which is exactly the recovery
// cost of a job killed past its last checkpoint.
func (c *Chain) FinalStep(name string, run func(in *dfs.View) (*Stats, error)) (*Stats, error) {
	i, err := c.begin(name)
	if err != nil {
		return nil, err
	}
	c.cfg.Resume = false
	if err := c.maybeKill(i, name); err != nil {
		return nil, err
	}
	in, err := c.openPending()
	if err != nil {
		return nil, err
	}
	st, err := run(in)
	if err != nil {
		return nil, err
	}
	c.stats.JobsRun++
	return st, nil
}

// LastCheckpoint names the most recent checkpoint file: inside a step's
// run, the file its input view reads; after the last step, the one
// Output opens. It is "" before the first checkpointing step.
func (c *Chain) LastCheckpoint() string { return c.last }

// Output opens the last checkpointed step's records on the DFS
// (charging the read — the final read-back a consumer of the chain's
// result pays). Valid after the last Step, including when every step
// was skipped by Resume.
func (c *Chain) Output() (*dfs.View, error) {
	if c.last == "" {
		return nil, fmt.Errorf("mapreduce: chain %q has no checkpointed step to output", c.cfg.Name)
	}
	c.pending = c.last
	return c.openPending()
}

// begin claims the next job index and validates chain state. The
// cancellation check lives here — the job boundary — so a cancelled
// chain charges nothing for the step it never starts: the claimed index
// is not counted as a chain job, no checkpoint is read or written, and
// the step closure (which loads its own inputs) never runs.
func (c *Chain) begin(name string) (int, error) {
	if c.killed {
		return 0, fmt.Errorf("mapreduce: chain %q: step %q after kill", c.cfg.Name, name)
	}
	if ctx := c.cfg.Context; ctx != nil {
		if cause := context.Cause(ctx); cause != nil {
			c.killed = true
			return 0, fmt.Errorf("mapreduce: chain %q cancelled before job %d (%s): %w", c.cfg.Name, c.next, name, cause)
		}
	}
	i := c.next
	c.next++
	c.stats.Jobs++
	if c.cfg.OnStep != nil {
		c.cfg.OnStep(i, name)
	}
	return i, nil
}

// maybeKill applies the deterministic kill point for job i.
func (c *Chain) maybeKill(i int, name string) error {
	if c.cfg.FailJob == nil || !c.cfg.FailJob(i) {
		return nil
	}
	c.killed = true
	return &ChainKilledError{Chain: c.cfg.Name, Job: i, Step: name}
}

// checkpointFile names job i's checkpoint data file; the meta record
// lives next to it under metaSuffix.
func (c *Chain) checkpointFile(i int, name string) string {
	return fmt.Sprintf("%s/%03d-%s", c.dir(), i, name)
}

const metaSuffix = ".meta"

// dir is the DFS directory of the chain's checkpoint files.
func (c *Chain) dir() string { return "chk/" + c.cfg.Name }

// stepOf returns the step a DFS file is one of the chain's checkpoint
// files of, data or meta; ok is false for any other file.
func (c *Chain) stepOf(name string) (step int, ok bool) {
	rest, ok := strings.CutPrefix(name, c.dir()+"/")
	digits, _, _ := strings.Cut(rest, "-")
	step, err := strconv.Atoi(digits)
	return step, ok && err == nil
}

// AgreeResume makes the workers of a distributed chain resume from one
// step. Every worker writes byte-identical checkpoints of all-gathered
// outputs, so survivors of a failed attempt differ only in how many
// trailing steps they committed before a peer died mid-exchange. Each
// worker all-gathers the length of its committed prefix, one uvarint,
// and deletes its own checkpoints, data and meta, at or beyond the
// least; every worker's Resume then skips the same steps and the SPMD
// exchanges stay in lockstep. Call it once, before the first step, on
// every worker of d.
func (c *Chain) AgreeResume(d *DistConfig) error {
	files := c.cfg.FS.List()
	// A step is committed when its meta, which is written last, and its
	// data are both on the FS: the test tryResume makes.
	committed := map[int]bool{}
	for _, name := range files {
		data, isMeta := strings.CutSuffix(name, metaSuffix)
		if i, ok := c.stepOf(name); ok && isMeta && c.cfg.FS.Exists(data) {
			committed[i] = true
		}
	}
	var local uint64
	for committed[int(local)] {
		local++
	}
	incoming, err := distGather(d, "resume-prefix", appendUvarints(nil, local))
	if err != nil {
		return fmt.Errorf("mapreduce: chain %q: resume agreement: %w", c.cfg.Name, err)
	}
	defer d.Exchanger.Recycle()
	agreed := local
	for w, buf := range incoming {
		n, rest, err := readUvarint(buf)
		if err == nil && len(rest) > 0 {
			err = fmt.Errorf("mapreduce: dist frame: %d bytes after the resume prefix", len(rest))
		}
		if err != nil {
			return fmt.Errorf("mapreduce: chain %q: resume agreement: worker %d: %w", c.cfg.Name, w, err)
		}
		agreed = min(agreed, n)
	}
	for _, name := range files {
		if i, ok := c.stepOf(name); ok && uint64(i) >= agreed {
			if err := c.cfg.FS.Delete(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// tryResume checks whether job i's checkpoint is complete and, if so,
// returns the Stats recorded in its meta file. The meta read is charged
// to the DFS counters — it is the bookkeeping cost of recovery.
func (c *Chain) tryResume(i int, name, file string) (*Stats, bool, error) {
	fs := c.cfg.FS
	if !fs.Exists(file+metaSuffix) || !fs.Exists(file) {
		return nil, false, nil
	}
	var meta chainMeta
	var metaBytes, metaRecords int64
	err := fs.Scan(file+metaSuffix, func(rec []byte) error {
		metaBytes += int64(len(rec))
		metaRecords++
		return json.Unmarshal(rec, &meta)
	})
	switch {
	case err != nil:
		// The read or a record's JSON failed: reported as it is.
	case metaRecords != 1:
		err = fmt.Errorf("%d records, want 1", metaRecords)
	case meta.Stats == nil:
		err = errors.New("no stats")
	}
	if err != nil {
		return nil, false, &CheckpointMetaError{Chain: c.cfg.Name, Job: i, File: file + metaSuffix, Err: err}
	}
	if meta.Step != i || meta.Name != name {
		return nil, false, fmt.Errorf("mapreduce: chain %q: checkpoint %q records job %d (%s), want job %d (%s); use a fresh FS", c.cfg.Name, file, meta.Step, meta.Name, i, name)
	}
	if _, records, err := fs.Size(file); err != nil {
		return nil, false, err
	} else if records != meta.Records {
		return nil, false, fmt.Errorf("mapreduce: chain %q: checkpoint %q has %d records, meta says %d; use a fresh FS", c.cfg.Name, file, records, meta.Records)
	}
	c.stats.ResumedJobs++
	c.stats.CheckpointBytesRead += metaBytes
	c.stats.CheckpointRecordsRead++
	return meta.Stats, true, nil
}

// openPending opens the pending checkpoint file, if any, charging the
// whole-file read. The first step of a fresh chain has no pending file
// and receives nil.
func (c *Chain) openPending() (*dfs.View, error) {
	if c.pending == "" {
		return nil, nil
	}
	file := c.pending
	c.pending = ""
	in, err := c.cfg.FS.Open(file)
	if err != nil {
		return nil, err
	}
	c.stats.CheckpointBytesRead += in.Bytes()
	c.stats.CheckpointRecordsRead += int64(in.Len())
	return in, nil
}

// writeCheckpoint commits job i's output records and meta record.
func (c *Chain) writeCheckpoint(i int, name, file string, out dfs.Segments, st *Stats) error {
	fs := c.cfg.FS
	// The chain owns the step's segments and their slice (see Step), so
	// both move into the file uncopied.
	if err := fs.WriteSegments(file, out); err != nil {
		return err
	}
	// Wall times are the one nondeterministic Stats field; persisting
	// them would make the meta record's length — and with it every
	// checkpoint byte counter — vary run to run. They are zeroed so
	// recovery cost reconciles exactly against a clean run; a resumed
	// job therefore reports zero walls, which is also what it spent.
	// The ShuffleNetwork* counters are excluded too: they depend on the
	// cluster width the job happened to run at, and persisting them
	// would make the charged meta-record length — a paper-level cost
	// figure — differ between distributed and in-process runs of the
	// same chain.
	ms := *st
	ms.MapWall, ms.ReduceWall, ms.TotalWall = 0, 0, 0
	ms.ShuffleNetworkBytes, ms.ShuffleNetworkRuns = 0, 0
	records := out.Len()
	js, err := json.Marshal(chainMeta{Step: i, Name: name, Records: records, Stats: &ms})
	if err != nil {
		return err
	}
	// The meta record is committed after the data file, so a crash
	// between the two writes leaves an incomplete (ignorable)
	// checkpoint rather than a meta record pointing at missing data.
	// It is a file of one record, so its stride is its length.
	if err := fs.WriteSegments(file+metaSuffix, dfs.Segments{Stride: len(js), Segs: [][]byte{js}}); err != nil {
		return err
	}
	c.stats.CheckpointBytesWritten += out.Bytes() + int64(len(js))
	c.stats.CheckpointRecordsWritten += records + 1
	return nil
}
