package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"mwsjoin/internal/profile"
	"mwsjoin/internal/server"
	"mwsjoin/internal/spatial"
)

// servedOp is one scheduled operation of a client.
type servedOp struct {
	text, method string
	family       string // oracle key: the text itself for hot queries
	kind         string // "hot", "auto" or "pinned"
}

// servedBlock is the schedule's unit: two hot repeats, four planner
// ("auto") submissions, two pinned c-rep-l, so any whole number of
// blocks carries the mix exactly: 25 % hits, 50 % auto, 25 % pinned.
const servedBlock = 8

// servedSchedule deals a client's operations in blocks, shuffled inside
// the block. Blocks come in pairs that share one order (and, six misses
// to a block, one family per position), so the traced pass can record
// spans on the first of each pair and keep the second as its control.
func servedSchedule(client, n int, seed uint64, missBase float64) []servedOp {
	rng := rand.New(rand.NewPCG(seed, uint64(client)+1))
	block := []string{"hot", "hot", "auto", "auto", "auto", "auto", "pinned", "pinned"}
	ops := make([]servedOp, 0, n)
	var hot, miss int
	for b := 0; len(ops) < n; b++ {
		if b%2 == 0 {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		for _, kind := range block {
			if len(ops) == n {
				break
			}
			if kind == "hot" {
				h := servedHot[(hot+client)%len(servedHot)]
				hot++
				ops = append(ops, servedOp{text: h.Text, method: h.Method, family: h.Text, kind: kind})
				continue
			}
			fam := servedMissFamilies[miss%len(servedMissFamilies)]
			// Clients draw from disjoint halves of the family's steps,
			// so no text repeats inside a pass.
			k := client*maxMiss/2 + miss + 1
			miss++
			op := servedOp{text: missText(fam, missBase, k), method: "auto", family: fam, kind: kind}
			if kind == "pinned" {
				op.method = "c-rep-l"
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// servedJob is one executed (not cached) job as the server reported it.
type servedJob struct {
	stats     *spatial.Stats
	exec      time.Duration
	shuffleUS int64
	traced    bool
}

// servedResult is what one operation measured, client side.
type servedResult struct {
	wallMS, submitMS, fetchMS float64
	shuffleUS                 int64 // traced misses only, from the job's profile
	status                    server.JobStatus
	got                       sig
	rejected, traced          bool
	err                       error
}

// servedClient is one closed-loop HTTP client: it sends its next
// operation only after the previous one has delivered every tuple.
type servedClient struct {
	base string
	http *http.Client
}

func (c *servedClient) getJSON(url string, v any) error {
	resp, err := c.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// do runs one operation: POST the query, poll its status every 2 ms
// until it is terminal, page the whole result. A nil log records no
// spans.
func (c *servedClient) do(op servedOp, queryID int, log *spanLog) servedResult {
	r := servedResult{traced: log != nil}
	start := time.Now()
	root := log.start("server.op."+op.kind, 0, queryID)
	defer log.end(root)

	sp := log.start("server.submit", root, queryID)
	body, _ := json.Marshal(server.SubmitRequest{Query: op.text, Method: op.method})
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	code := resp.StatusCode
	if code == http.StatusOK || code == http.StatusAccepted {
		r.err = json.NewDecoder(resp.Body).Decode(&r.status)
	}
	resp.Body.Close()
	log.end(sp)
	r.submitMS = ms(time.Since(start))
	switch {
	case code == http.StatusTooManyRequests:
		r.rejected = true
		r.err = fmt.Errorf("admission rejected %q", op.text)
		return r
	case code != http.StatusOK && code != http.StatusAccepted:
		r.err = fmt.Errorf("POST %q: HTTP %d", op.text, code)
		return r
	case r.err != nil:
		return r
	}

	sp = log.start("server.wait", root, queryID)
	for r.status.State == server.StateQueued || r.status.State == server.StateRunning {
		time.Sleep(2 * time.Millisecond)
		if r.err = c.getJSON(c.base+"/v1/jobs/"+r.status.ID, &r.status); r.err != nil {
			return r
		}
	}
	log.end(sp)
	if r.status.State != server.StateDone {
		r.err = fmt.Errorf("job %s ended %s: %s", r.status.ID, r.status.State, r.status.Error)
		return r
	}

	sp = log.start("server.result_fetch", root, queryID)
	fetchStart := time.Now()
	for offset := 0; ; {
		var page server.ResultPage
		url := fmt.Sprintf("%s/v1/jobs/%s/result?offset=%d&limit=10000", c.base, r.status.ID, offset)
		if r.err = c.getJSON(url, &page); r.err != nil {
			return r
		}
		for _, ids := range page.Tuples {
			r.got.add(ids)
		}
		if page.NextOffset == nil {
			break
		}
		offset = *page.NextOffset
	}
	log.end(sp)
	r.fetchMS = ms(time.Since(fetchStart))
	r.wallMS = ms(time.Since(start))
	if log != nil && r.status.HasProfile {
		// Outside the operation's wall: the shuffle phase is timed only
		// in the job's span profile.
		var p profile.Profile
		if r.err = c.getJSON(c.base+"/v1/jobs/"+r.status.ID+"/profile", &p); r.err == nil {
			for _, round := range p.Rounds {
				r.shuffleUS += round.Shuffle.WallUS
			}
		}
	}
	return r
}

// servedPass runs the served mix: set-up (load six CSVs, register them,
// listen, warm the four hot queries into the cache), then two
// closed-loop clients replaying their seeded schedules concurrently.
func servedPass(w *workload, spec passSpec, log *spanLog, res *passResult) error {
	start := time.Now()
	setup := log.start("setup", 0, 0)
	rels, err := loadRelations(spec.DataDir, spec.Relations, log, setup)
	if err != nil {
		return err
	}
	srv := server.New(server.Config{Workers: 2, Parallelism: 1})
	for _, rel := range rels {
		srv.RegisterRelation(rel)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: server.NewHandler(srv, nil)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		httpSrv.Serve(ln) //nolint:errcheck // always ErrServerClosed after Shutdown
	}()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx) //nolint:errcheck // the pass is over either way
		srv.Close(ctx)        //nolint:errcheck
		<-served
	}()

	const clients = 2
	cs := make([]*servedClient, clients)
	for i := range cs {
		cs[i] = &servedClient{base: "http://" + ln.Addr().String(), http: &http.Client{Transport: &http.Transport{}}}
		defer cs[i].http.CloseIdleConnections()
	}
	check := func(op servedOp, r servedResult) {
		switch {
		case r.err != nil:
			res.fail("%s %q: %v", op.kind, op.text, r.err)
		case r.got != spec.Oracle[op.family]:
			want := spec.Oracle[op.family]
			res.fail("%s %q: %d tuples (hash %x), oracle has %d (hash %x)", op.kind, op.text, r.got.N, r.got.H, want.N, want.H)
		}
	}
	// Warm-up: the four hot queries, so they are in the cache, and
	// planned misses from the top of the families' step range.
	var warm []servedOp
	for _, h := range servedHot {
		warm = append(warm, servedOp{text: h.Text, method: h.Method, family: h.Text, kind: "warm"})
	}
	for i := 0; i < warmups; i++ {
		fam := servedMissFamilies[i%len(servedMissFamilies)]
		warm = append(warm, servedOp{text: missText(fam, spec.MissBase, maxMiss-i), method: "auto", family: fam, kind: "warm"})
	}
	for _, op := range warm {
		check(op, cs[0].do(op, 0, log))
	}
	log.end(setup)
	res.SetupS = time.Since(start).Seconds()

	// Timed region: both clients at once. Results are checked after the
	// clients stop, outside it.
	deadline := time.Now().Add(time.Duration(spec.MaxSeconds * float64(time.Second)))
	schedules := make([][]servedOp, clients)
	results := make([][]servedResult, clients)
	alloc0 := allocMB()
	var wg sync.WaitGroup
	for c := range cs {
		schedules[c] = servedSchedule(c, (spec.Ops+clients-1-c)/clients, spec.Seed, spec.MissBase)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, op := range schedules[c] {
				if time.Now().After(deadline) {
					return
				}
				// The traced pass records spans on the first block of
				// each pair; the second is its untraced control.
				opLog := log
				if i/servedBlock%2 == 1 {
					opLog = nil
				}
				results[c] = append(results[c], cs[c].do(op, 1+c+i*clients, opLog))
			}
		}(c)
	}
	wg.Wait()
	res.AllocMB = allocMB() - alloc0

	byKind := map[string][]float64{}
	var submit, fetch, queueWait, exec []float64
	var jobs []servedJob
	var hits, rejected float64
	for c := range results {
		for i, r := range results[c] {
			op := schedules[c][i]
			res.Attempted++
			check(op, r)
			if r.rejected {
				rejected++
			}
			if r.err != nil {
				continue
			}
			res.WallMS = append(res.WallMS, r.wallMS)
			submit = append(submit, r.submitMS)
			fetch = append(fetch, r.fetchMS)
			if r.status.Cached {
				hits++
				byKind["hit"] = append(byKind["hit"], r.wallMS)
				continue
			}
			byKind["miss"] = append(byKind["miss"], r.wallMS)
			if r.traced {
				byKind["miss traced"] = append(byKind["miss traced"], r.wallMS)
			} else {
				byKind["miss plain"] = append(byKind["miss plain"], r.wallMS)
			}
			queueWait = append(queueWait, float64(r.status.QueueWaitUS)/1e3)
			exec = append(exec, float64(r.status.ExecUS)/1e3)
			if st := r.status.Stats; st != nil {
				res.CommMB += float64(commBytes(st)) / 1e6
				jobs = append(jobs, servedJob{st, time.Duration(r.status.ExecUS) * time.Microsecond, r.shuffleUS, r.traced})
			}
		}
	}
	if log == nil {
		return nil
	}
	res.Layers = map[string]float64{
		"server.submit_ms":       mean(submit),
		"server.queue_wait_ms":   mean(queueWait),
		"server.exec_ms":         mean(exec),
		"server.result_fetch_ms": mean(fetch),
		"server.hit_ms":          mean(byKind["hit"]),
		"server.miss_ms":         mean(byKind["miss"]),
		"server.cache_hit_share": hits / float64(max(res.Attempted, 1)),
		"server.rejected":        rejected,
		"e2e.wall_p25_ms":        quantile(res.WallMS, 0.25),
		"e2e.wall_p90_ms":        quantile(res.WallMS, 0.90),
	}
	res.TracedWallMS = mean(exec)
	if plain := mean(byKind["miss plain"]); plain > 0 {
		res.Layers["trace.overhead_share"] = mean(byKind["miss traced"])/plain - 1
	}
	return servedLayers(rels, jobs, log, res.Layers)
}
