package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's row in a result file.
type workloadResult struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	// WallSamples counts the pooled per-operation samples behind
	// query_wall_ms; the quartile and p90 say how wide they spread.
	WallSamples int     `json:"wall_samples,omitempty"`
	WallP25MS   float64 `json:"wall_p25_ms,omitempty"`
	WallP90MS   float64 `json:"wall_p90_ms,omitempty"`
	// RefKernelMS is host.ref_kernel_ms before and after every pass, so
	// a pass on a busy host is recognisable.
	RefKernelMS []float64         `json:"ref_kernel_ms"`
	PerLayer    map[string]metric `json:"per_layer,omitempty"`
	// TracedWallMS is the wall of the traced queries the phase walls in
	// PerLayer were taken from — what the budget must add up to.
	TracedWallMS float64 `json:"traced_wall_ms,omitempty"`
}

// summarize folds the untraced passes into the end-to-end metrics and
// the traced pass into the per-layer metrics. Either may be absent.
func summarize(w *workload, timed []*passResult, traced *passResult) workloadResult {
	wr := workloadResult{Name: w.name, Why: w.why}
	if len(timed) > 0 {
		var walls, setups, rss []float64
		var alloc, comm float64
		for _, p := range timed {
			wr.Attempted += p.Attempted
			wr.Failed += p.Failed
			wr.RefKernelMS = append(wr.RefKernelMS, p.RefKernelMS...)
			walls = append(walls, p.WallMS...)
			setups = append(setups, p.SetupS)
			rss = append(rss, p.PeakRSSMB)
			alloc += p.AllocMB
			comm += p.CommMB
		}
		// The served mix is bimodal by design (hits beside misses), so
		// its typical operation is the mean — client-busy time over
		// operations — where the others report the pooled median.
		wall := median(walls)
		if w.kind == "served" {
			wall = mean(walls)
		}
		ops := float64(max(wr.Attempted, 1))
		wr.EndToEnd = map[string]metric{
			"setup_s":            {median(setups), "s"},
			"query_wall_ms":      {wall, "ms"},
			"alloc_mb_per_query": {alloc / ops, "MB"},
			"comm_mb_per_query":  {comm / ops, "MB"},
			"peak_rss_mb":        {median(rss), "MB"},
		}
		wr.WallSamples, wr.WallP25MS, wr.WallP90MS = len(walls), quantile(walls, 0.25), quantile(walls, 0.90)
	}
	if traced != nil {
		if len(timed) == 0 {
			wr.Attempted = traced.Attempted
		}
		wr.Failed += traced.Failed
		wr.TracedWallMS = traced.TracedWallMS
		wr.RefKernelMS = append(wr.RefKernelMS, traced.RefKernelMS...)
		traced.Layers["host.ref_kernel_ms"] = mean(traced.RefKernelMS)
		wr.PerLayer = make(map[string]metric, len(layerMetrics))
		for _, lm := range layerMetrics {
			wr.PerLayer[lm.name] = metric{traced.Layers[lm.name], lm.unit}
		}
	}
	return wr
}

// printBudget sets the traced pass's phase walls against its query
// wall: the layers must account for the time, so a gap over 5 % — or
// more than 15 % of the wall outside every round — is a finding.
func (wr *workloadResult) printBudget(w io.Writer) {
	l := func(name string) float64 { return wr.PerLayer[name].Value }
	wall := wr.TracedWallMS
	sum := l("mapreduce.map_ms") + l("mapreduce.shuffle_ms") + l("mapreduce.reduce_ms") + l("spatial.unattributed_ms")
	fmt.Fprintf(w, "budget %-16s map %.1f + shuffle %.1f + reduce %.1f + unattributed %.1f = %.1f ms of %.1f ms wall",
		wr.Name, l("mapreduce.map_ms"), l("mapreduce.shuffle_ms"), l("mapreduce.reduce_ms"), l("spatial.unattributed_ms"), sum, wall)
	if wall > 0 && math.Abs(sum-wall)/wall > 0.05 {
		fmt.Fprintf(w, "  FINDING: gap %+.1f%%", 100*(sum-wall)/wall)
	}
	if wall > 0 && l("spatial.unattributed_ms")/wall > 0.15 {
		fmt.Fprintf(w, "  FINDING: %.0f%% of the wall is outside every round", 100*l("spatial.unattributed_ms")/wall)
	}
	if l("trace.overhead_share") > 0.05 {
		fmt.Fprintf(w, "  FINDING: tracing costs %.1f%%", 100*l("trace.overhead_share"))
	}
	fmt.Fprintln(w)
}

// suiteResult is a result file: everything one run of the whole suite
// measured, plus enough about the host to recognise a busy one.
type suiteResult struct {
	Seed      uint64           `json:"seed"`
	Unit      int              `json:"unit"`
	Seconds   int              `json:"seconds"`
	Host      hostRecord       `json:"host"`
	Workloads []workloadResult `json:"workloads"`
	// Claim is always null: the benchmark is the instrument, it claims
	// no gain.
	Claim *string `json:"claim"`
}

type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LoadAvg    string `json:"load_average_at_start"`
	Started    string `json:"started"`
}

// suite runs every workload: three untraced passes in the order
// A B C D A B C D A B C D — so each workload's samples are spread over
// the whole run, not taken in one block — then, withTrace, one traced
// pass each. It prints the metrics and writes a result file.
func (h *harness) suite(withTrace bool) (*suiteResult, error) {
	sr := &suiteResult{Seed: h.seed, Unit: h.unit, Seconds: h.seconds, Host: hostRecord{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		LoadAvg: loadAverage(), Started: time.Now().UTC().Format(time.RFC3339),
	}}
	prep := make([]*prepared, len(workloads))
	for i, w := range workloads {
		p, err := h.prepare(w)
		if err != nil {
			return nil, err
		}
		defer p.cleanup()
		prep[i] = p
	}
	timed := make([][]*passResult, len(workloads))
	for pass := 0; pass < passes; pass++ {
		for i, p := range prep {
			fmt.Fprintf(os.Stderr, "pass %d/%d %s\n", pass+1, passes, p.w.name)
			res, err := h.pass(p, "")
			if err != nil {
				return nil, err
			}
			timed[i] = append(timed[i], res)
		}
	}
	failed := 0
	for i, p := range prep {
		var traced *passResult
		if withTrace {
			fmt.Fprintf(os.Stderr, "traced pass %s\n", p.w.name)
			var err error
			if traced, err = h.pass(p, h.traceFile(p.w)); err != nil {
				return nil, err
			}
		}
		wr := summarize(p.w, timed[i], traced)
		failed += wr.Failed
		sr.Workloads = append(sr.Workloads, wr)
	}
	sr.print(os.Stdout)
	path := filepath.Join(h.out, fmt.Sprintf("result-%d.json", time.Now().UnixNano()))
	data, err := json.MarshalIndent(sr, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "result file: %s\n", path)
	if failed > 0 {
		return sr, fmt.Errorf("%d operations failed", failed)
	}
	return sr, nil
}

// print lists every metric by name with its unit, then the summary
// object, which ends with "claim": null.
func (sr *suiteResult) print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, wr := range sr.Workloads {
		fmt.Fprintf(tw, "%s\tattempted %d\tfailed %d\t%d wall samples, p25 %.1f ms, p90 %.1f ms\n",
			wr.Name, wr.Attempted, wr.Failed, wr.WallSamples, wr.WallP25MS, wr.WallP90MS)
		for _, name := range endToEndNames {
			m := wr.EndToEnd[name]
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", name, m.Value, m.Unit)
		}
		if wr.PerLayer == nil {
			continue
		}
		for _, lm := range layerMetrics {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", lm.name, wr.PerLayer[lm.name].Value, lm.unit)
		}
	}
	tw.Flush()
	for i := range sr.Workloads {
		if sr.Workloads[i].PerLayer != nil {
			sr.Workloads[i].printBudget(w)
		}
	}
	summary := struct {
		Seed      uint64                       `json:"seed"`
		Host      hostRecord                   `json:"host"`
		Workloads map[string]map[string]metric `json:"workloads"`
		Failed    int                          `json:"failed"`
		Claim     *string                      `json:"claim"`
	}{Seed: sr.Seed, Host: sr.Host, Workloads: map[string]map[string]metric{}}
	for _, wr := range sr.Workloads {
		summary.Workloads[wr.Name] = wr.EndToEnd
		summary.Failed += wr.Failed
	}
	data, _ := json.MarshalIndent(summary, "", "  ")
	fmt.Fprintln(w, string(data))
}

var endToEndNames = []string{"setup_s", "query_wall_ms", "alloc_mb_per_query", "comm_mb_per_query", "peak_rss_mb"}

// manifestFile is the part of BENCHMARK.json the harness reads: the
// bound of each end-to-end metric.
type manifestFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(path string) (*manifestFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifestFile
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// selfcheck runs the suite twice on the same tree. The two runs measure
// identical code, so any gap between them is the benchmark's own noise
// and must stay inside the bound it gates other changes with.
func (h *harness) selfcheck(manifest string) error {
	m, err := readManifest(manifest)
	if err != nil {
		return err
	}
	a, err := h.suite(false)
	if err != nil {
		return err
	}
	b, err := h.suite(false)
	if err != nil {
		return err
	}
	return compareResults(os.Stdout, a, b, m)
}

func compareFiles(pathA, pathB, manifest string) error {
	m, err := readManifest(manifest)
	if err != nil {
		return err
	}
	var rs [2]suiteResult
	for i, path := range []string{pathA, pathB} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return compareResults(os.Stdout, &rs[0], &rs[1], m)
}

// compareResults prints, per workload × end-to-end metric, both values,
// their relative gap and the bound, and fails when a gap exceeds it.
func compareResults(w io.Writer, a, b *suiteResult, m *manifestFile) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tgap\tbound\t")
	over := 0
	for i, wa := range a.Workloads {
		if i >= len(b.Workloads) || b.Workloads[i].Name != wa.Name {
			return fmt.Errorf("result files list different workloads")
		}
		for _, e := range m.EndToEnd {
			va, vb := wa.EndToEnd[e.Name].Value, b.Workloads[i].EndToEnd[e.Name].Value
			gap := 0.0
			if va != 0 {
				gap = (vb - va) / va
			}
			verdict := ""
			if math.Abs(gap) > e.Bound {
				verdict = "OVER"
				over++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n", wa.Name, e.Name, va, vb, 100*gap, 100*e.Bound, verdict)
		}
	}
	tw.Flush()
	if over > 0 {
		return fmt.Errorf("%d gaps exceed their bound", over)
	}
	return nil
}
