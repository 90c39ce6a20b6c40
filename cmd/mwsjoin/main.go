// Command mwsjoin evaluates a multi-way spatial join query over
// rectangle dataset files on the simulated map-reduce cluster.
//
// Usage:
//
//	mwsjoin -query "R1 ov R2 and R2 ra(100) R3" \
//	        -rel R1=r1.csv -rel R2=r2.csv -rel R3=r3.csv \
//	        -method c-rep-l -reducers 64 -stats
//
// A self-join binds one file to several slots:
//
//	mwsjoin -query "a ov b and b ov c" -rel a=roads.csv -rel b=roads.csv -rel c=roads.csv
//
// Output is one tuple per line (the rectangle indices bound to each
// slot); -stats adds the cost metrics of §7.8.3 on stderr.
//
// -explain skips the normal run and instead predicts every map-reduce
// method's cost from samples, measures the actuals with suppressed
// tuple output, and prints a predicted-vs-actual table with relative
// errors.
//
// -method auto delegates the choice of method to the cost-based
// planner: it prices every map-reduce method with the cost model on
// the grid -partition, -reducers and -split-threshold select — they
// mean the same under every -method — and runs the cheapest in the
// cost-based join order. -explain-plan prints the grid and the
// planner's candidate table — the chosen method first, then every
// rejected one with its predicted cost — without executing anything;
// an explicit -method narrows it to that method.
// -timeout bounds the run: the execution stops cooperatively at its
// next job boundary and the command exits with status 3, distinguishing
// a deadline from a failure (status 1).
//
// -profile writes a structured post-run query profile (per-round
// map/shuffle/reduce breakdown; "-" prints to stderr) and -trace-chrome
// a Chrome trace-event timeline loadable in chrome://tracing.
//
// For a long-lived service answering many concurrent queries, see the
// mwsjoind daemon.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mwsjoin"
)

// writeFile writes one export to path ("" skips it).
func writeFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// relFlags collects repeated -rel slot=path flags.
type relFlags map[string]string

func (r relFlags) String() string { return fmt.Sprint(map[string]string(r)) }

func (r relFlags) Set(v string) error {
	slot, path, ok := strings.Cut(v, "=")
	if !ok || slot == "" || path == "" {
		return fmt.Errorf("want -rel <slot>=<file>, got %q", v)
	}
	if _, dup := r[slot]; dup {
		return fmt.Errorf("slot %q bound twice", slot)
	}
	r[slot] = path
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mwsjoin:", err)
		// A -timeout expiry is an operational outcome, not a query
		// failure; give it a distinct exit status so scripts can tell
		// "query is wrong" (1) from "query is too slow" (3).
		if errors.Is(err, context.DeadlineExceeded) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mwsjoin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rels := relFlags{}
	var (
		queryText = fs.String("query", "", `query text, e.g. "R1 ov R2 and R2 ra(100) R3"`)
		method    = fs.String("method", "c-rep-l", "join method: brute-force | 2-way-cascade | all-replicate | c-rep | c-rep-l | auto (cost-based planner picks the cheapest method on the -partition/-reducers grid)")
		reducers  = fs.Int("reducers", 64, "reducer count (perfect square for -partition uniform)")
		partition = fs.String("partition", "uniform", "reducer partitioning scheme: uniform | adaptive (sample-driven split/merge, balances skewed data; results are identical)")
		splitThr  = fs.Float64("split-threshold", 0, "adaptive-partition split capacity factor; a region splits while it holds more than split-threshold × (sample/reducers) sample points (0 = default 1.0)")
		stats     = fs.Bool("stats", false, "print cost statistics to stderr")
		quiet     = fs.Bool("quiet", false, "suppress tuple output (use with -stats)")
		euclid    = fs.Bool("euclidean-limit", false, "use the paper's Euclidean C-Rep-L metric")
		selfPairs = fs.Bool("allow-self-pairs", false, "allow one rectangle in several self-join slots")
		explain   = fs.Bool("explain", false, "predict each map-reduce method's cost, measure the actuals, and print a predicted-vs-actual table (ignores -method and tuple output)")
		explainPl = fs.Bool("explain-plan", false, "print the grid and the cost-based planner's candidate table (chosen method plus every rejected one with predicted costs) and exit without running the query")
		failJob   = fs.Int("fail-job", -1, "kill the run before job-chain index N (fault injection); with -checkpoint, the completed checkpoints are saved for -resume")
		resume    = fs.Bool("resume", false, "resume a killed run from the -checkpoint snapshot; completed jobs are skipped and only the checkpoint re-read is charged")
		chkPath   = fs.String("checkpoint", "", "host file holding the simulated file-system snapshot: written when -fail-job kills the run, read by -resume")
		timeout   = fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit); the execution stops at its next job boundary and the command exits with status 3")
		profPath  = fs.String("profile", "", `write the structured query profile (per-round map/shuffle/reduce breakdown, skew and chain accounting) to this file after the run; "-" prints it to stderr`)
		chromeOut = fs.String("trace-chrome", "", "write a Chrome trace-event JSON timeline of the execution to this file (load in chrome://tracing or Perfetto); each event's args carry its span_id and parent_id")
	)
	fs.Var(rels, "rel", "slot binding <slot>=<file>; repeat once per slot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *queryText == "" {
		return fmt.Errorf("-query is required")
	}
	if *resume && *chkPath == "" {
		return fmt.Errorf("-resume requires -checkpoint <file>")
	}

	// -explain-plan ranks every method unless -method was typed: the
	// flag's c-rep-l default must not silently narrow the table.
	setFlags := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	q, err := mwsjoin.ParseQuery(*queryText)
	if err != nil {
		return err
	}
	auto := *method == "auto"
	var m mwsjoin.Method
	if !auto {
		if m, err = mwsjoin.ParseMethod(*method); err != nil {
			return err
		}
	}

	var tracer *mwsjoin.Tracer
	if *profPath != "" || *chromeOut != "" {
		tracer = mwsjoin.NewTracer()
	}
	// Bind files to slots; identical paths share one relation name so
	// self-join distinctness applies.
	bound := make([]mwsjoin.Relation, q.NumSlots())
	loaded := map[string]mwsjoin.Relation{}
	for i, slot := range q.Slots() {
		path, ok := rels[slot]
		if !ok {
			return fmt.Errorf("no -rel binding for query slot %q", slot)
		}
		rel, ok := loaded[path]
		if !ok {
			rel, err = mwsjoin.ReadRelationFile(path, path)
			if err != nil {
				return err
			}
			loaded[path] = rel
		}
		bound[i] = rel
	}

	opts := mwsjoin.Options{
		Reducers:       *reducers,
		Partition:      *partition,
		SplitThreshold: *splitThr,
		EuclideanLimit: *euclid,
		AllowSelfPairs: *selfPairs,
		Tracer:         tracer,
	}
	if *resume {
		f, err := os.Open(*chkPath)
		if err != nil {
			return fmt.Errorf("-resume: %w", err)
		}
		opts.FS, err = mwsjoin.ReadFileSystemSnapshot(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("-resume %s: %w", *chkPath, err)
		}
		opts.Resume = true
	}
	if *failJob >= 0 {
		k := *failJob
		opts.FailJob = func(i int) bool { return i == k }
		if opts.FS == nil {
			opts.FS = mwsjoin.NewFileSystem()
		}
	}

	// The timeout rides on the engine's cooperative cancellation: the
	// deadline is noticed at the next chain-job boundary or task
	// attempt, the partial run charges no further accounting, and the
	// returned error wraps context.DeadlineExceeded so main can exit
	// with the dedicated timeout status.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Plan in auto / -explain-plan mode, on the grid the flags select.
	var plan *mwsjoin.Plan
	if auto || *explainPl {
		var popts mwsjoin.PlannerOptions
		if !auto && setFlags["method"] {
			popts.Methods = []mwsjoin.Method{m}
		}
		if plan, err = mwsjoin.PlanQuery(q, bound, &opts, popts); err != nil {
			return err
		}
		if *explainPl {
			fmt.Fprintf(stdout, "grid: %s/%d (%d cells), cost-based join order\n", *partition, *reducers, plan.Cells)
			return plan.WriteExplain(stdout)
		}
		fmt.Fprintf(stderr, "planner: %v on %s/%d (%d cells), predicted cost %.0f of %d candidates\n",
			plan.Method, *partition, *reducers, plan.Cells, plan.Cost, len(plan.Alternatives))
	}

	var res *mwsjoin.Result
	if *explain {
		if err := runExplain(ctx, q, bound, opts, stdout); err != nil {
			return err
		}
	} else {
		if auto {
			res, err = mwsjoin.RunPlanContext(ctx, q, bound, plan, &opts)
		} else {
			res, err = mwsjoin.RunContext(ctx, q, bound, m, &opts)
		}
		if err != nil {
			var killed *mwsjoin.ChainKilledError
			if errors.As(err, &killed) && *chkPath != "" {
				// The snapshot holds the killed run's chain checkpoints.
				if serr := writeFile(*chkPath, opts.FS.WriteSnapshot); serr != nil {
					return fmt.Errorf("%w; saving checkpoint snapshot: %v", err, serr)
				}
				fmt.Fprintf(stderr, "run killed before job %d; checkpoints saved to %s — re-run with -resume -checkpoint %s to finish\n",
					killed.Job, *chkPath, *chkPath)
			}
			return err
		}
	}
	err = writeFile(*chromeOut, func(w io.Writer) error {
		return mwsjoin.WriteChromeTrace(w, tracer.Spans())
	})
	if err != nil {
		return err
	}
	if res != nil && *profPath != "" {
		prof := mwsjoin.BuildProfile(q, &res.Stats, tracer.Spans())
		if *profPath == "-" {
			err = prof.WriteText(stderr)
		} else {
			err = writeFile(*profPath, prof.WriteText)
		}
		if err != nil {
			return err
		}
	}
	if *explain {
		return nil
	}

	if !*quiet {
		w := bufio.NewWriter(stdout)
		for _, t := range res.Tuples {
			for i, id := range t.IDs {
				if i > 0 {
					fmt.Fprint(w, "\t")
				}
				fmt.Fprint(w, id)
			}
			fmt.Fprintln(w)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	if *stats {
		s := res.Stats // res is non-nil: the explain branch returned above
		fmt.Fprintf(stderr, "method:                  %v\n", s.Method)
		fmt.Fprintf(stderr, "output tuples:           %d\n", s.OutputTuples)
		fmt.Fprintf(stderr, "wall time:               %v\n", s.Wall)
		fmt.Fprintf(stderr, "map-reduce rounds:       %d\n", len(s.Rounds))
		fmt.Fprintf(stderr, "intermediate pairs:      %d\n", s.IntermediatePairs())
		fmt.Fprintf(stderr, "rectangles replicated:   %d\n", s.RectanglesReplicated)
		fmt.Fprintf(stderr, "rects after replication: %d\n", s.RectanglesAfterReplication)
		fmt.Fprintf(stderr, "dfs bytes written:       %d\n", s.DFS.BytesWritten)
		fmt.Fprintf(stderr, "dfs bytes read:          %d\n", s.DFS.BytesRead)
		if s.Chain != nil {
			fmt.Fprintf(stderr, "chain jobs run/resumed:  %d/%d\n", s.Chain.JobsRun, s.Chain.ResumedJobs)
			fmt.Fprintf(stderr, "checkpoint bytes w/r:    %d/%d\n", s.Chain.CheckpointBytesWritten, s.Chain.CheckpointBytesRead)
		}
		for i, r := range s.Rounds {
			fmt.Fprintf(stderr, "round %d (%s): pairs=%d keys=%d skew=%.2f map=%v reduce=%v\n",
				i+1, r.Job, r.IntermediatePairs, r.ReduceInputKeys, r.MaxReducerSkew(), r.MapWall, r.ReduceWall)
		}
	}
	return nil
}

// explainMethods are the map-reduce methods the -explain table covers
// (BruteForce shuffles nothing, so there is no cost model to validate).
var explainMethods = []mwsjoin.Method{
	mwsjoin.Cascade, mwsjoin.AllReplicate,
	mwsjoin.ControlledReplicate, mwsjoin.ControlledReplicateLimit,
}

// runExplain predicts each method's §7.8.3 cost figures from samples,
// measures the actuals with CountOnly runs, and prints the
// predicted-vs-actual table with relative errors.
func runExplain(ctx context.Context, q *mwsjoin.Query, rels []mwsjoin.Relation, opts mwsjoin.Options, stdout io.Writer) error {
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "%-14s %7s %42s %42s %42s\n", "", "", "intermediate pairs", "rect copies to join round", "output tuples")
	fmt.Fprintf(w, "%-14s %7s %14s %14s %12s %14s %14s %12s %14s %14s %12s\n",
		"method", "rounds", "predicted", "actual", "rel err", "predicted", "actual", "rel err", "predicted", "actual", "rel err")
	for _, m := range explainMethods {
		pred, err := mwsjoin.Predict(q, rels, m, &opts)
		if err != nil {
			return err
		}
		o := opts
		o.CountOnly = true
		res, err := mwsjoin.RunContext(ctx, q, rels, m, &o)
		if err != nil {
			return err
		}
		s := res.Stats
		fmt.Fprintf(w, "%-14v %7d %14.0f %14d %12s %14.0f %14d %12s %14.0f %14d %12s\n",
			m, pred.Rounds,
			pred.Pairs, s.IntermediatePairs(), relErr(pred.Pairs, s.IntermediatePairs()),
			pred.Copies, s.RectanglesAfterReplication, relErr(pred.Copies, s.RectanglesAfterReplication),
			pred.Tuples, s.OutputTuples, relErr(pred.Tuples, s.OutputTuples))
	}
	return w.Flush()
}

// relErr formats the signed relative error of a prediction against the
// measured value ("n/a" when the actual is zero).
func relErr(predicted float64, actual int64) string {
	if actual == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(predicted-float64(actual))/float64(actual))
}
