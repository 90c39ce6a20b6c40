// Command mwsjoind is the multi-query join daemon: it registers
// rectangle dataset files as named relations and serves concurrent
// multi-way spatial join queries over an asynchronous HTTP JSON API,
// executing them on the simulated map-reduce cluster through a bounded
// worker pool with EXPLAIN-based admission control and a byte-budgeted
// result cache.
//
// Usage:
//
//	mwsjoind -listen :8080 -rel roads=roads.csv -rel parks=parks.csv \
//	         -workers 4 -queue-limit 64 -cache-bytes 67108864
//
// API (see the README's Serving section for a curl walkthrough):
//
//	POST   /v1/jobs                submit {"query", "method", "priority"} → job id
//	GET    /v1/jobs                list all jobs
//	GET    /v1/jobs/{id}           state (queued|running|done|failed|cancelled) + progress + stats
//	GET    /v1/jobs/{id}/result    paginated result tuples (?offset=&limit=)
//	GET    /v1/jobs/{id}/profile   structured execution profile of a done job
//	GET    /v1/jobs/{id}/trace     Chrome trace-event JSON (chrome://tracing, Perfetto)
//	DELETE /v1/jobs/{id}           cancel a queued or running job
//	GET    /v1/relations           registered relations with content fingerprints
//	GET    /v1/slowlog             slow-query log (top-N jobs by end-to-end latency)
//	GET    /v1/status              version, go version, uptime, job/state counts
//	GET    /v1/workers             cluster worker roster (404 without -cluster-listen)
//	GET    /metrics                Prometheus text (server_*, server_slo_*, server_workers_*, mapreduce_*, dfs_*, spatial_*)
//	GET    /debug/pprof/*          the Go profiler
//
// With -cluster-listen the daemon additionally runs a cluster
// coordinator: mwsjworker processes register on that address, and every
// submitted query executes distributed across the registered workers
// with a real network shuffle instead of on the in-process engine.
// Results are bit-identical either way; -cluster-workers N blocks
// startup until N workers have joined.
//
// On SIGINT/SIGTERM the daemon drains gracefully: submissions are
// rejected, queued jobs are cancelled, running jobs get -drain to
// finish (then are cancelled at their next chain boundary), and
// in-flight HTTP requests complete before the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"mwsjoin"

	"mwsjoin/internal/cluster"
	"mwsjoin/internal/metrics"
	"mwsjoin/internal/server"
	"mwsjoin/internal/spatial"
)

// version identifies the build on /v1/status and the
// server_build_info_* gauge; override at build time with
// -ldflags "-X main.version=v1.2.3".
var version = "dev"

// testAfterStart, when set by tests, receives the bound listen address
// and a stop function (equivalent to SIGTERM) once the daemon is
// serving. It is invoked on its own goroutine while run keeps serving.
var testAfterStart func(addr string, stop func())

// relFlags collects repeated -rel name=file flags in definition order.
type relFlags struct {
	names []string
	files map[string]string
}

func (r *relFlags) String() string { return fmt.Sprint(r.files) }

func (r *relFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want -rel <name>=<file>, got %q", v)
	}
	if r.files == nil {
		r.files = map[string]string{}
	}
	if _, dup := r.files[name]; dup {
		return fmt.Errorf("relation %q bound twice", name)
	}
	r.names = append(r.names, name)
	r.files[name] = path
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mwsjoind:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mwsjoind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rels := &relFlags{}
	var (
		listen     = fs.String("listen", ":8080", "HTTP listen address; :0 picks a free port")
		workers    = fs.Int("workers", 2, "concurrently running queries (worker-pool size)")
		queueLimit = fs.Int("queue-limit", 64, "queued-job bound; submissions beyond it are rejected with 429")
		costBudget = fs.Float64("cost-budget", 0, "max summed EXPLAIN-predicted intermediate pairs in flight; 0 = unbounded")
		cacheBytes = fs.Int64("cache-bytes", server.DefaultCacheBytes, "result-cache byte budget; negative disables caching")
		reducers   = fs.Int("reducers", 64, "reducer count per job (perfect square for -partition uniform)")
		partition  = fs.String("partition", "uniform", "per-job reducer partitioning scheme: uniform | adaptive; the adaptive grid is built at admission, so EXPLAIN pricing matches the executed plan")
		splitThr   = fs.Float64("split-threshold", 0, "adaptive-partition split capacity factor (0 = default 1.0)")
		parallel   = fs.Int("parallelism", 0, "per-job concurrent task bound; 0 = GOMAXPROCS")
		drain      = fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for running jobs and in-flight HTTP requests")
		slowlogN   = fs.Int("slowlog", server.DefaultSlowlogSize, "slow-query log size (top-N jobs by end-to-end latency on /v1/slowlog); negative disables")
		spillBudg  = fs.Int64("spill-budget", 0, "per-run in-memory byte budget for each mapper's runs; over-budget runs spill to uncharged local scratch with identical results (0 = never spill)")
		clListen   = fs.String("cluster-listen", "", "coordinator control address for mwsjworker processes; empty = in-process engine")
		clWorkers  = fs.Int("cluster-workers", 1, "with -cluster-listen, wait for this many workers before serving")
		clMappers  = fs.Int("cluster-mappers", 0, "with -cluster-listen, mappers per job (must be explicit across workers; 0 = 8)")
		clBeatTO   = fs.Duration("cluster-heartbeat-timeout", 2*time.Second, "with -cluster-listen, a worker silent this long is declared dead and its sessions re-executed")
	)
	fs.Var(rels, "rel", "relation binding <name>=<file>; repeat once per relation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(rels.names) == 0 {
		return fmt.Errorf("at least one -rel <name>=<file> is required")
	}

	reg := metrics.NewRegistry()
	scheme, err := spatial.ParsePartitionScheme(*partition)
	if err != nil {
		return err
	}
	var coord *cluster.Coordinator
	if *clListen != "" {
		coord, err = cluster.StartCoordinator(cluster.CoordinatorConfig{
			Listen:           *clListen,
			HeartbeatTimeout: *clBeatTO,
			Metrics:          reg,
			Logf: func(format string, a ...any) {
				fmt.Fprintf(stderr, "mwsjoind: coordinator: "+format+"\n", a...)
			},
		})
		if err != nil {
			return fmt.Errorf("-cluster-listen %s: %w", *clListen, err)
		}
		defer coord.Close()
		fmt.Fprintf(stderr, "mwsjoind: coordinator on %s, waiting for %d worker(s)\n", coord.Addr(), *clWorkers)
		if err := coord.WaitForWorkers(*clWorkers, time.Minute); err != nil {
			return err
		}
	}
	srv := server.New(server.Config{
		Workers:        *workers,
		QueueLimit:     *queueLimit,
		CostBudget:     *costBudget,
		CacheBytes:     *cacheBytes,
		Reducers:       *reducers,
		Partition:      scheme,
		SplitThreshold: *splitThr,
		Parallelism:    *parallel,
		SpillBudget:    *spillBudg,
		Cluster:        coord,
		NumMappers:     *clMappers,
		Metrics:        reg,
		Version:        version,
		SlowlogSize:    *slowlogN,
	})
	for _, name := range rels.names {
		rel, err := mwsjoin.ReadRelationFile(name, rels.files[name])
		if err != nil {
			return err
		}
		info := srv.RegisterRelation(rel)
		fmt.Fprintf(stderr, "mwsjoind: registered %s (%d records, fingerprint %s)\n",
			info.Name, info.Records, info.Fingerprint)
	}

	addr, shutdownHTTP, err := server.ListenAndServe(*listen, server.NewHandler(srv, reg), *drain)
	if err != nil {
		return fmt.Errorf("-listen %s: %w", *listen, err)
	}
	fmt.Fprintf(stderr, "mwsjoind: serving on http://%s (POST /v1/jobs to submit)\n", addr)

	stop := make(chan struct{})
	if testAfterStart != nil {
		go testAfterStart(addr, sync.OnceFunc(func() { close(stop) }))
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(stderr, "mwsjoind: %v — draining (budget %v)\n", s, *drain)
	case <-stop:
		fmt.Fprintf(stderr, "mwsjoind: stop requested — draining (budget %v)\n", *drain)
	}

	// Drain jobs first (the status API stays reachable while they
	// finish), then drain the HTTP server itself.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	jobErr := srv.Close(ctx)
	if jobErr != nil {
		fmt.Fprintf(stderr, "mwsjoind: %v\n", jobErr)
	}
	if err := shutdownHTTP(); err != nil {
		return errors.Join(jobErr, err)
	}
	fmt.Fprintln(stderr, "mwsjoind: shut down cleanly")
	return nil
}
