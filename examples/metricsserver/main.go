// Metricsserver walks through the metrics surface: serve a registry over
// HTTP, let a Controlled-Replicate run publish its Stats into it when it
// ends, scrape our own /metrics endpoint the way a Prometheus collector
// would, and read the per-reducer skew distribution (p50/p95/max and the
// imbalance factor) off the registry's histograms.
//
//	go run ./examples/metricsserver
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"

	"mwsjoin"
	"mwsjoin/internal/profile"
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
	q, err := mwsjoin.ParseQuery("R1 ov R2 and R2 ov R3")
	if err != nil {
		return err
	}

	// The server binds before the run starts; the run's series land in
	// the registry when it ends, read off its Stats.
	reg := mwsjoin.NewMetricsRegistry()
	addr, shutdown, err := mwsjoin.ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		return err
	}
	defer shutdown() //nolint:errcheck // best-effort on exit

	_, err = mwsjoin.Run(q, rels, mwsjoin.ControlledReplicate, &mwsjoin.Options{
		Reducers:  16,
		Metrics:   reg,
		CountOnly: true,
	})
	if err != nil {
		return err
	}

	// Scrape our own endpoint, exactly as Prometheus would.
	fmt.Fprintf(w, "== scraping http://%s/metrics ==\n", addr)
	body, err := scrape("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "spatial_") || strings.HasPrefix(line, "mapreduce_jobs_total") {
			fmt.Fprintln(w, line)
		}
	}

	snap := reg.Snapshot()
	// Per-reducer skew: the distribution of intermediate pairs across
	// every reducer of every job.
	h := snap.Histograms[profile.ReducerPairsHistogram]
	fmt.Fprintf(w, "\n== reducer skew (%d reducer observations) ==\n", h.Count)
	fmt.Fprintf(w, "pairs per reducer: p50=%d p95=%d max=%d\n",
		h.Quantile(0.5), h.Quantile(0.95), h.Max)
	fmt.Fprintf(w, "imbalance factor (max/mean): %.2f\n", h.Imbalance())

	// Grid-cell skew from the spatial layer: the candidates each
	// non-empty join cell received.
	ch := snap.Histograms["spatial_cell_candidates"]
	fmt.Fprintf(w, "spatial_cell_candidates: p50=%d p95=%d max=%d imbalance=%.2f\n",
		ch.Quantile(0.5), ch.Quantile(0.95), ch.Max, ch.Imbalance())
	return nil
}

// scrape GETs a URL and returns the body.
func scrape(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(body), nil
}
