// Server walkthrough: boot the multi-query join service in-process,
// drive its HTTP JSON API end to end — register relations, submit a
// query, poll its chain progress, page through the result — and show
// the result cache answering a repeated submission without running a
// single map-reduce job.
//
//	go run ./examples/server
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"mwsjoin"

	"mwsjoin/internal/metrics"
	"mwsjoin/internal/server"
)

func main() {
	if err := run(os.Stdout, 800); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, n int) error {
	// The service: 2 workers, default cache, the paper's 64-reducer grid.
	reg := metrics.NewRegistry()
	svc := server.New(server.Config{Workers: 2, Reducers: 64, Metrics: reg})

	// Serve the JSON API (plus /metrics) on a loopback port with a
	// graceful drain, exactly as the mwsjoind daemon does.
	addr, shutdown, err := server.ListenAndServe("127.0.0.1:0", server.NewHandler(svc, reg), 5*time.Second)
	if err != nil {
		return err
	}
	defer shutdown() //nolint:errcheck // best-effort on exit
	base := "http://" + addr
	fmt.Fprintf(w, "service listening on %s\n", base)

	// Register three synthetic relations; the fingerprint identifies the
	// dataset content and keys the result cache. The space is much
	// denser than the paper's defaults so the 3-way chain join has
	// output to page through at walkthrough scale.
	params := mwsjoin.SyntheticParams{
		N:    n,
		XMin: 0, XMax: 4000,
		YMin: 0, YMax: 4000,
		LMin: 50, LMax: 250,
		BMin: 50, BMax: 250,
	}
	for i, name := range []string{"cities", "forests", "rivers"} {
		rel, err := mwsjoin.SyntheticRelation(name, params, uint64(i+1))
		if err != nil {
			return err
		}
		info := svc.RegisterRelation(rel)
		fmt.Fprintf(w, "registered %-8s %5d records  fingerprint %s\n", info.Name, info.Records, info.Fingerprint)
	}

	// Submit the paper's Q2 chain query over HTTP.
	submit := func() (server.JobStatus, error) {
		body, _ := json.Marshal(server.SubmitRequest{
			Query:  "cities ov forests and forests ov rivers",
			Method: "c-rep-l",
		})
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return server.JobStatus{}, err
		}
		defer resp.Body.Close()
		var st server.JobStatus
		return st, json.NewDecoder(resp.Body).Decode(&st)
	}
	st, err := submit()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "submitted %s: state=%s predicted pairs=%.0f over %d rounds\n",
		st.ID, st.State, st.PredictedPairs, st.PredictedRounds)

	// Poll until done, reporting chain-step progress.
	lastStep := ""
	for st.State == server.StateQueued || st.State == server.StateRunning {
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if st.CurrentStep != "" && st.CurrentStep != lastStep {
			lastStep = st.CurrentStep
			fmt.Fprintf(w, "  progress: step %d (%s)\n", st.StepsDone, st.CurrentStep)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != server.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	fmt.Fprintf(w, "done: %d tuples, %d intermediate pairs over %d rounds\n",
		st.OutputTuples, st.Stats.IntermediatePairs(), len(st.Stats.Rounds))

	// Page through the result.
	var firstPage server.ResultPage
	resp, err := http.Get(base + "/v1/jobs/" + st.ID + "/result?limit=5")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&firstPage)
	resp.Body.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "first page: %d of %d tuples\n", firstPage.Count, firstPage.Total)
	for _, ids := range firstPage.Tuples {
		fmt.Fprintf(w, "  cities[%d] ⋈ forests[%d] ⋈ rivers[%d]\n", ids[0], ids[1], ids[2])
	}

	// The same submission again: answered from the byte-budgeted LRU
	// cache, keyed on (query, method, dataset fingerprints) — no new
	// map-reduce jobs run.
	runsBefore := reg.Counter("spatial_runs_total").Value()
	again, err := submit()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "resubmitted: cached=%v state=%s (cache hits=%d, new executions=%d)\n",
		again.Cached, again.State,
		reg.Counter("server_cache_hits_total").Value(),
		reg.Counter("spatial_runs_total").Value()-runsBefore)

	// Drain the service before the HTTP listener goes away.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return svc.Close(ctx)
}
