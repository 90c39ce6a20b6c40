package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs one untraced and one traced pass of every workload at
// unit 500, in this process: the oracle must agree and the traced pass
// must yield every declared per-layer metric and a span file.
func TestSmoke(t *testing.T) {
	h := &harness{seed: 2013, seconds: 1, unit: 500, out: t.TempDir()}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p, err := h.prepare(w)
			if err != nil {
				t.Fatal(err)
			}
			defer p.cleanup()
			spec := p.spec
			spec.Ops = 1
			if w.kind == "served" {
				spec.Ops = 2 * servedBlock
			}
			timed, err := runPass(spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.TraceFile = h.traceFile(w)
			traced, err := runPass(spec)
			if err != nil {
				t.Fatal(err)
			}
			wr := summarize(w, []*passResult{timed}, traced)
			if wr.Failed != 0 || wr.Attempted < 1 {
				t.Fatalf("attempted %d, failed %d: %v %v", wr.Attempted, wr.Failed, timed.Failures, traced.Failures)
			}
			for _, name := range endToEndNames {
				if m, ok := wr.EndToEnd[name]; !ok || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			if len(wr.PerLayer) != len(layerMetrics) {
				t.Errorf("%d per-layer metrics, want %d", len(wr.PerLayer), len(layerMetrics))
			}
			if wr.PerLayer["mapreduce.pairs"].Value <= 0 || wr.PerLayer["dataset.load_ms"].Value <= 0 {
				t.Errorf("traced pass measured no pairs or no load time: %+v", wr.PerLayer)
			}
			if info, err := os.Stat(spec.TraceFile); err != nil || info.Size() == 0 {
				t.Errorf("span file %s missing or empty: %v", spec.TraceFile, err)
			}
		})
	}
}

// TestManifest holds BENCHMARK.json to the harness: the names, units
// and counts it declares are the ones the harness prints.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(raw))
	}
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics exceed 8/16/128", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: declared %q (why: %d chars), harness has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(m.EndToEnd) != len(endToEndNames) {
		t.Fatalf("%d end-to-end metrics declared, harness has %d", len(m.EndToEnd), len(endToEndNames))
	}
	units := map[string]string{"setup_s": "s", "query_wall_ms": "ms", "alloc_mb_per_query": "MB", "comm_mb_per_query": "MB", "peak_rss_mb": "MB"}
	for i, e := range m.EndToEnd {
		checkName(e.Name)
		if e.Name != endToEndNames[i] || e.Unit != units[e.Name] || e.Better != "lower" || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v", i, e)
		}
	}
	if len(m.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, harness has %d", len(m.PerLayer), len(layerMetrics))
	}
	for i, l := range m.PerLayer {
		checkName(l.Name)
		if l.Name != layerMetrics[i].name || l.Unit != layerMetrics[i].unit || (l.Better != "lower" && l.Better != "higher") {
			t.Errorf("per-layer metric %d: declared %+v, harness has %+v", i, l, layerMetrics[i])
		}
	}
}
