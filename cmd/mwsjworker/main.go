// Command mwsjworker is one worker of the distributed join runtime: it
// registers with a coordinator (mwsjoind -cluster-listen), heartbeats,
// and executes its share of every query session the coordinator places.
// Each session attempt dials a TCP mesh to its peers, over which every
// job makes three exchanges: its map report (counters, and each map
// run's priced bytes, from which every worker places the reducers), its
// map runs for the peers' reducers (unsorted values in emit order),
// then its reducers' outputs (for the 2-way Cascade, the page segments
// of the round's checkpoint).
//
// Usage:
//
//	mwsjworker -coordinator 127.0.0.1:9090 -name w0
//
// The process exits when the coordinator connection drops or on
// SIGINT/SIGTERM. -die-after-exchanges N SIGKILLs the process right
// before its N-th mesh exchange of a session — a map-reduce job makes
// three, its map report, its run shuffle and its output gather — the
// deterministic mid-round crash the recovery CI stanza injects.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"mwsjoin/internal/cluster"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mwsjworker:", err)
		os.Exit(1)
	}
}

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("mwsjworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coordinator = fs.String("coordinator", "127.0.0.1:9090", "coordinator control address (mwsjoind -cluster-listen)")
		name        = fs.String("name", "", "unique worker name (required)")
		dataListen  = fs.String("data-listen", "127.0.0.1:0", "data-plane listen address for the network shuffle")
		exchangeTO  = fs.Duration("exchange-timeout", 0, "bound on one whole shuffle exchange, its sends included, and on how long a session waits for relations it asked for (0 = 60s)")
		dieAfter    = fs.Int("die-after-exchanges", 0, "testing: SIGKILL this process right before its n-th mesh exchange of a session, three per job (0 = never)")
		quiet       = fs.Bool("quiet", false, "suppress per-session logs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("-name is required")
	}

	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	if *quiet {
		logf = nil
	}
	w, err := cluster.StartWorker(cluster.WorkerConfig{
		Coordinator:       *coordinator,
		Name:              *name,
		DataAddr:          *dataListen,
		ExchangeTimeout:   *exchangeTO,
		DieAfterExchanges: *dieAfter,
		Logf:              logf,
	})
	if err != nil {
		return err
	}
	defer w.Close()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(stderr, "mwsjworker: %v — shutting down\n", s)
	case <-w.Done():
		fmt.Fprintln(stderr, "mwsjworker: coordinator connection lost — exiting")
	}
	return nil
}
