// Command benchmark is the one instrument for every performance claim
// about this repository: four workloads, five end-to-end metrics, a
// per-layer budget. See README.md for why each exists and how the
// metrics interact; BENCHMARK.json at the repository root fixes the
// names, units and bounds.
//
// Driver form, one workload per invocation:
//
//	bash benchmark/run.sh --workload cascade_uniform --seed 2013 --seconds 20 --trace 0
//
// Without --workload it runs the whole suite (three interleaved passes
// of all four workloads, then one traced pass each) and writes a result
// file; -selfcheck runs the suite twice and compares the two; -compare
// a.json,b.json compares two result files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"mwsjoin/internal/dataset"
)

const passes = 3

func main() {
	var (
		h         harness
		name      = flag.String("workload", "", "run this one workload and print one JSON result line (the driver form)")
		traced    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced pass")
		manifest  = flag.String("manifest", "BENCHMARK.json", "the benchmark's declaration: names, units, bounds")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice on this tree and compare the two runs against the bounds")
		compare   = flag.String("compare", "", "compare two result files, given as a.json,b.json, against the bounds")
		child     = flag.String("child", "", "internal: run the pass described by this spec file")
	)
	flag.Uint64Var(&h.seed, "seed", 2013, "workload seed; 7 is reserved for checking later claims")
	flag.IntVar(&h.seconds, "seconds", 20, "run length: fixes the operation count per workload (see workload.rate)")
	flag.IntVar(&h.unit, "unit", 50_000, "rectangles per uniform relation; other relations scale with it (200000 is the paper's scale, for ad-hoc runs)")
	flag.StringVar(&h.out, "out", filepath.Join("benchmark", "out"), "directory for generated inputs, traces and result files")
	flag.Parse()

	var err error
	switch a, b, two := strings.Cut(*compare, ","); {
	case *child != "":
		err = runChild(*child)
	case two:
		err = compareFiles(a, b, *manifest)
	case h.seconds < 1 || h.unit < 100:
		err = fmt.Errorf("need -seconds ≥ 1 and -unit ≥ 100, got %d and %d", h.seconds, h.unit)
	default:
		if err = os.MkdirAll(h.out, 0o755); err != nil {
			break
		}
		switch w := findWorkload(*name); {
		case *name != "" && w == nil:
			err = fmt.Errorf("unknown workload %q", *name)
		case w != nil:
			err = h.driverRun(w, *traced == 1)
		case *selfcheck:
			err = h.selfcheck(*manifest)
		default:
			_, err = h.suite(true)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// harness is the parent process: it generates inputs, runs the oracle,
// and spawns one child per pass.
type harness struct {
	seed    uint64
	seconds int
	unit    int
	out     string
}

// prepared is one workload's generated inputs plus their oracle.
type prepared struct {
	w    *workload
	dir  string
	spec passSpec
}

// ops is the fixed operation count of one pass.
func (h *harness) ops(w *workload) int {
	n := int(math.Round(float64(h.seconds) * w.rate / passes))
	if w.kind == "served" {
		// Two clients, each running whole pairs of blocks.
		const quantum = 2 * 2 * servedBlock
		return max((n+quantum/2)/quantum*quantum, quantum)
	}
	return max(n, 1)
}

// prepare generates the workload's relations from the seed, writes the
// CSVs the program under test will read, and runs the brute-force
// oracle once — all outside every timed region and outside set-up.
func (h *harness) prepare(w *workload) (*prepared, error) {
	data, err := w.generate(h.unit, h.seed)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	dir, err := os.MkdirTemp(h.out, "data-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	p := &prepared{w: w, dir: dir}
	p.spec = passSpec{
		Workload: w.name, DataDir: dir, Seed: h.seed,
		Ops: h.ops(w), MaxSeconds: 2.5 * float64(h.seconds) / passes,
	}
	for _, d := range data {
		p.spec.Relations = append(p.spec.Relations, d.Name)
		if err := dataset.WriteFile(csvPath(dir, d.Name), d.Rects); err != nil {
			p.cleanup()
			return nil, err
		}
	}
	if p.spec.Oracle, p.spec.MissBase, err = oracles(w, data); err != nil {
		p.cleanup()
		return nil, err
	}
	return p, nil
}

func (p *prepared) cleanup() { os.RemoveAll(p.dir) }

// pass runs one pass in a fresh child process. traceFile, when set,
// makes it the traced pass.
func (h *harness) pass(p *prepared, traceFile string) (*passResult, error) {
	spec := p.spec
	spec.TraceFile = traceFile
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	specPath := filepath.Join(p.dir, "spec.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", specPath)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s pass: %w", p.w.name, err)
	}
	var res passResult
	if err := json.Unmarshal(outBytes, &res); err != nil {
		return nil, fmt.Errorf("%s pass: result: %w", p.w.name, err)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED %s\n", p.w.name, f)
	}
	return &res, nil
}

func runChild(specPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec passSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	res, err := runPass(spec)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func (h *harness) traceFile(w *workload) string {
	return filepath.Join(h.out, "trace-"+w.name+".jsonl")
}

// driverRun is the form the PR driver calls: one workload, one result
// line. The end-to-end metrics pool three untraced passes; the
// per-layer metrics come from one traced pass.
func (h *harness) driverRun(w *workload, traced bool) error {
	p, err := h.prepare(w)
	if err != nil {
		return err
	}
	defer p.cleanup()
	var wr workloadResult
	if traced {
		res, err := h.pass(p, h.traceFile(w))
		if err != nil {
			return err
		}
		wr = summarize(w, nil, res)
		wr.printBudget(os.Stderr)
		return printResultLine(wr.Attempted, wr.Failed, wr.PerLayer)
	}
	var results []*passResult
	for i := 0; i < passes; i++ {
		res, err := h.pass(p, "")
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	wr = summarize(w, results, nil)
	return printResultLine(wr.Attempted, wr.Failed, wr.EndToEnd)
}

// printResultLine prints the driver's contract: one JSON object as the
// last line of standard output.
func printResultLine(attempted, failed int, metrics map[string]metric) error {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}
