package spatial

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/query"
)

// distHub is an in-memory Exchanger fabric for SPMD tests: W workers
// exchange framed payloads over per-pair buffered channels, the same
// contract internal/cluster implements over TCP. A payload is delivered
// after its sender's AllToAll returns and its frame goes back to the
// pool, so the hub carries a copy.
type distHub struct {
	w     int
	chans [][]chan []byte
}

func newDistHub(w int) *distHub {
	h := &distHub{w: w, chans: make([][]chan []byte, w)}
	for i := range h.chans {
		h.chans[i] = make([]chan []byte, w)
		for j := range h.chans[i] {
			h.chans[i][j] = make(chan []byte, 256)
		}
	}
	return h
}

type distHubExchanger struct {
	h    *distHub
	self int
}

func (h *distHub) exchanger(self int) mapreduce.Exchanger {
	return &distHubExchanger{h: h, self: self}
}

func (e *distHubExchanger) AllToAll(tag string, outgoing [][]byte) ([][]byte, error) {
	if len(outgoing) != e.h.w {
		return nil, fmt.Errorf("AllToAll %s: %d payloads for %d workers", tag, len(outgoing), e.h.w)
	}
	for w := 0; w < e.h.w; w++ {
		if w != e.self {
			e.h.chans[e.self][w] <- bytes.Clone(outgoing[w])
		}
	}
	in := make([][]byte, e.h.w)
	in[e.self] = outgoing[e.self]
	for w := 0; w < e.h.w; w++ {
		if w != e.self {
			in[w] = <-e.h.chans[w][e.self]
		}
	}
	return in, nil
}

// executeDistributed runs Execute on w SPMD workers, each with its own
// DFS, over a shared distHub, and returns every worker's result.
func executeDistributed(t *testing.T, w int, method Method, q *query.Query, rels []Relation, cfg Config) ([]*Result, []error) {
	t.Helper()
	hub := newDistHub(w)
	results := make([]*Result, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for self := 0; self < w; self++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			wcfg := cfg
			wcfg.FS = dfs.New(0)
			wcfg.Dist = &mapreduce.DistConfig{NumWorkers: w, Self: self, Exchanger: hub.exchanger(self)}
			results[self], errs[self] = Execute(method, q, rels, wcfg)
		}(self)
	}
	wg.Wait()
	return results, errs
}

// normalizeSpatialStats strips the fields that legitimately differ
// between an in-process and a distributed run of the same workload:
// wall clocks everywhere and the network-shuffle byte family.
func normalizeSpatialStats(s Stats) Stats {
	n := s
	n.Wall = 0
	n.Rounds = make([]*mapreduce.Stats, len(s.Rounds))
	for i, r := range s.Rounds {
		rr := *r
		rr.MapWall, rr.ReduceWall, rr.TotalWall = 0, 0, 0
		rr.ShuffleNetworkBytes, rr.ShuffleNetworkRuns = 0, 0
		n.Rounds[i] = &rr
	}
	if s.Chain != nil {
		cc := *s.Chain
		n.Chain = &cc
	}
	return n
}

func distMethods() []Method {
	return []Method{Cascade, AllReplicate, ControlledReplicate, ControlledReplicateLimit}
}

// TestDistributedExecuteEquivalence is the distributed-correctness
// oracle at the spatial layer: for every map-reduce method, N=1 and
// N=3 SPMD runs must produce TupleSets bit-identical to the in-process
// engine, with DFS charges reconciling exactly and network bytes
// accounted in the separate ShuffleNetwork family.
func TestDistributedExecuteEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(2013, 10))
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Range(1, 2, 40)
	rels := randomRelations(rng, 3, 120, 1000, 55)
	cfg := Config{Reducers: 16, NumMappers: 6, Parallelism: 3}

	for _, m := range distMethods() {
		t.Run(m.String(), func(t *testing.T) {
			ref := cfg
			ref.FS = dfs.New(0)
			want, err := Execute(m, q, rels, ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 3} {
				results, errs := executeDistributed(t, w, m, q, rels, cfg)
				for self := 0; self < w; self++ {
					if errs[self] != nil {
						t.Fatalf("W=%d worker %d: %v", w, self, errs[self])
					}
					got := results[self]
					if !reflect.DeepEqual(got.Tuples, want.Tuples) {
						t.Errorf("W=%d worker %d: tuples diverge from in-process (%d vs %d)", w, self, len(got.Tuples), len(want.Tuples))
					}
					gs, ws := normalizeSpatialStats(got.Stats), normalizeSpatialStats(want.Stats)
					if !reflect.DeepEqual(gs, ws) {
						t.Errorf("W=%d worker %d: stats diverge:\n got %+v\nwant %+v", w, self, gs, ws)
					}
					if got.Stats.DFS != want.Stats.DFS {
						t.Errorf("W=%d worker %d: DFS charges diverge:\n got %+v\nwant %+v", w, self, got.Stats.DFS, want.Stats.DFS)
					}
					var net int64
					for _, r := range got.Stats.Rounds {
						net += r.ShuffleNetworkBytes
					}
					if w == 1 && net != 0 {
						t.Errorf("W=1 worker %d: ShuffleNetworkBytes = %d on the degenerate case", self, net)
					}
					if w == 3 && net == 0 {
						t.Errorf("W=3 worker %d: no network shuffle bytes recorded", self)
					}
					if net != func() int64 {
						var n int64
						for _, r := range results[0].Stats.Rounds {
							n += r.ShuffleNetworkBytes
						}
						return n
					}() {
						t.Errorf("W=%d: workers disagree on ShuffleNetworkBytes", w)
					}
				}
			}
		})
	}
}

func TestDistributedConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(2013, 12))
	q := query.New("R1", "R2").Overlap(0, 1)
	rels := randomRelations(rng, 2, 20, 500, 50)
	hub := newDistHub(2)

	cfg := Config{Reducers: 4, NumMappers: 2, CountOnly: true,
		Dist: &mapreduce.DistConfig{NumWorkers: 2, Self: 0, Exchanger: hub.exchanger(0)}}
	if _, err := Execute(Cascade, q, rels, cfg); err == nil || !strings.Contains(err.Error(), "CountOnly") {
		t.Errorf("CountOnly with 2 workers: err = %v", err)
	}

	cfg = Config{Reducers: 4,
		Dist: &mapreduce.DistConfig{NumWorkers: 2, Self: 0, Exchanger: hub.exchanger(0)}}
	if _, err := Execute(Cascade, q, rels, cfg); err == nil || !strings.Contains(err.Error(), "NumMappers") {
		t.Errorf("missing NumMappers with 2 workers: err = %v", err)
	}

	// The single-worker degenerate case accepts both omissions.
	cfg = Config{Reducers: 4, CountOnly: true, Dist: &mapreduce.DistConfig{NumWorkers: 1}}
	if _, err := Execute(Cascade, q, rels, cfg); err != nil {
		t.Errorf("single-worker degenerate case: %v", err)
	}
}
