package spatial

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

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

func (e *distHubExchanger) Recycle() {}

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

// TestDistributedResumeAgreesOnPrefix: two workers resume a cascade
// from FSs that hold different checkpoint prefixes — worker 1 lacks the
// last step's checkpoint, as a survivor does whose peer died mid-way
// through the step's output gather after worker 0 had committed it.
// Both must resume the prefix both hold, re-run the rest in lockstep
// and return the clean run's tuples. Should the workers skip different
// steps, one waits on an exchange its peer never makes, so the run has
// a deadline.
func TestDistributedResumeAgreesOnPrefix(t *testing.T) {
	rng := rand.New(rand.NewPCG(2013, 40))
	q := query.New("R1", "R2", "R3", "R4").Overlap(0, 1).Overlap(1, 2).Overlap(2, 3)
	rels := randomRelations(rng, 4, 150, 1000, 90)
	fss := []*dfs.FS{dfs.New(0), dfs.New(0)}
	run := func(resume bool) []*Result {
		t.Helper()
		hub := newDistHub(2)
		results, errs := make([]*Result, 2), make([]error, 2)
		done := make(chan int, 2)
		for self := range fss {
			go func() {
				results[self], errs[self] = Execute(Cascade, q, rels, Config{Reducers: 16, NumMappers: 4, Resume: resume, FS: fss[self],
					Dist: &mapreduce.DistConfig{NumWorkers: 2, Self: self, Exchanger: hub.exchanger(self)}})
				done <- self
			}()
		}
		deadline := time.After(30 * time.Second)
		for range fss {
			select {
			case self := <-done:
				if errs[self] != nil {
					t.Fatalf("resume=%v worker %d: %v", resume, self, errs[self])
				}
			case <-deadline:
				t.Fatalf("resume=%v: the workers did not finish within 30s; they fell out of lockstep", resume)
			}
		}
		return results
	}

	clean := run(false)
	if len(clean[0].Tuples) == 0 {
		t.Fatal("the clean run found no tuples; the test needs some")
	}
	metas := chainMetaFiles(fss[1])
	if len(metas) != 3 {
		t.Fatalf("a 4-relation cascade left %d checkpoints, want 3: %v", len(metas), metas)
	}
	last := metas[len(metas)-1]
	for _, name := range []string{last, strings.TrimSuffix(last, ".meta")} {
		if err := fss[1].Delete(name); err != nil {
			t.Fatal(err)
		}
	}

	const agreed = 2
	for self, res := range run(true) {
		if !reflect.DeepEqual(res.Tuples, clean[0].Tuples) {
			t.Errorf("worker %d: resumed tuples diverge from the clean run (%d vs %d)", self, len(res.Tuples), len(clean[0].Tuples))
		}
		if cs := res.Stats.Chain; cs.ResumedJobs != agreed || cs.JobsRun != 3-agreed {
			t.Errorf("worker %d: resumed %d jobs and ran %d, want %d and %d", self, cs.ResumedJobs, cs.JobsRun, agreed, 3-agreed)
		}
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

// slotForgingExchanger rewrites the first reduce-barrier payload a
// worker receives from its peer — the C-Rep mark round's gathered
// outputs — so that the first of marks' records it holds names slot m,
// one past the query's last.
type slotForgingExchanger struct {
	mapreduce.Exchanger
	self   int
	marks  [][]byte // the mark round's records, as an in-process run checkpoints them
	m      int
	forged bool // the first reduce barrier has passed
	hit    bool // a record was rewritten in it
}

func (e *slotForgingExchanger) AllToAll(tag string, outgoing [][]byte) ([][]byte, error) {
	in, err := e.Exchanger.AllToAll(tag, outgoing)
	if err != nil || tag != "outputs" || e.forged {
		return in, err
	}
	e.forged = true
	for w, p := range in {
		if w == e.self {
			continue
		}
		for _, rec := range e.marks {
			if at := bytes.Index(p, rec); at >= 0 {
				p[at] = byte(e.m) // the record's slot byte
				e.hit = true
				return in, nil
			}
		}
	}
	return in, nil
}

// TestDistributedMarkOutsideSlots: a mark record a peer gathers into
// the C-Rep mark checkpoint names one of the query's slots. One that
// names slot m would land in the checkpoint and count as a replicated
// rectangle without changing a tuple, so the gather rejects it and both
// workers of a W = 2 run end in an error that names the slot. Should
// only one worker fail, its peer waits on an exchange it never makes,
// so the run has a deadline.
func TestDistributedMarkOutsideSlots(t *testing.T) {
	rng := rand.New(rand.NewPCG(2013, 47))
	q := query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2)
	rels := randomRelations(rng, 3, 300, 1000, 80)
	cfg := Config{Reducers: 16, NumMappers: 4}
	ref := cfg
	ref.FS = dfs.New(0)
	if _, err := Execute(ControlledReplicate, q, rels, ref); err != nil {
		t.Fatal(err)
	}
	var marks [][]byte
	for _, name := range chainMetaFiles(ref.FS) {
		v, err := ref.FS.Open(strings.TrimSuffix(name, ".meta"))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Records(0, v.Len(), func(rec []byte) error { marks = append(marks, bytes.Clone(rec)); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	hub := newDistHub(2)
	errs := make([]error, 2)
	exs := make([]*slotForgingExchanger, 2)
	done := make(chan int, 2)
	for self := range exs {
		exs[self] = &slotForgingExchanger{Exchanger: hub.exchanger(self), self: self, marks: marks, m: q.NumSlots()}
		go func() {
			wcfg := cfg
			wcfg.FS = dfs.New(0)
			wcfg.Dist = &mapreduce.DistConfig{NumWorkers: 2, Self: self, Exchanger: exs[self]}
			_, errs[self] = Execute(ControlledReplicate, q, rels, wcfg)
			done <- self
		}()
	}
	deadline := time.After(30 * time.Second)
	for range exs {
		select {
		case <-done:
		case <-deadline:
			t.Fatal("the workers did not finish within 30s: one failed at the mark round and the other did not")
		}
	}
	for self, err := range errs {
		if !exs[self].hit {
			t.Fatalf("worker %d: its peer gathered none of the in-process run's %d marks; the check is vacuous", self, len(marks))
		}
		if err == nil || !strings.Contains(err.Error(), "slot") {
			t.Errorf("worker %d: a gathered mark record of slot %d: err = %v, want one naming the slot", self, q.NumSlots(), err)
		}
	}
}
