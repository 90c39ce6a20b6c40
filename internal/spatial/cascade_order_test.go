package spatial

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/query"
)

// The order-identity battery pins the cascade's observable behaviour —
// the tuple list *in order* and every deterministic Stats counter — to
// what the commit before the flat-partial rewrite (a2b8e1b) produced:
// testdata/cascade_order_golden.json and the snapshot beside it were
// written by this very file running on that commit. The rewrite moved
// the MinX sort from two global stable sorts on the driver into each
// reducer; tie order is the whole point, so the battery leans on
// relations whose rectangles share a handful of MinX values (±0 among
// them).
//
// The golden's Stats halves were rewritten once, when the engine's
// combiner and spill went: the Stats JSON, and with it every checkpoint
// meta record, lost two combine keys, and the spill1 config lost its
// subject. Every tuple half stayed the parent's.
//
// MWSJ_WRITE_CASCADE_GOLDEN=1 rewrites both files from the current
// code, which is only meaningful on a commit whose order is the
// reference.

const (
	orderGoldenFile   = "testdata/cascade_order_golden.json"
	orderSnapshotFile = "testdata/cascade_parent_snapshot.bin"
)

type orderWorkload struct {
	name string
	q    *query.Query
	rels []Relation
}

func orderWorkloads() []orderWorkload {
	q2 := func() *query.Query { return query.New("R1", "R2", "R3").Overlap(0, 1).Overlap(1, 2) }
	var ws []orderWorkload
	for _, seed := range []uint64{2013, 7} {
		rng := rand.New(rand.NewPCG(seed, 16))
		ws = append(ws, orderWorkload{fmt.Sprintf("q2-seed%d", seed), q2(), randomRelations(rng, 3, 400, 1000, 60)})
		// ra(d) primary edge into slot 1, an overlap primary plus an
		// overlap filter into slot 2, and slot 3 re-binding slot 0's
		// relation (a self-join, distinct ids enforced).
		rels := randomRelations(rng, 3, 160, 600, 50)
		ws = append(ws, orderWorkload{
			fmt.Sprintf("chain4-seed%d", seed),
			query.New("A", "B", "C", "D").Range(0, 1, 15).Overlap(1, 2).Overlap(0, 2).Range(2, 3, 10),
			[]Relation{rels[0], rels[1], rels[2], rels[0]},
		})
	}
	// Thousands of rectangles on five MinX values, -0 and +0 included.
	rng := rand.New(rand.NewPCG(2013, 99))
	xs := []float64{math.Copysign(0, -1), 0, 250, 250.5, 700}
	rels := make([]Relation, 3)
	for i, name := range []string{"R1", "R2", "R3"} {
		rects := make([]geom.Rect, 700)
		for j := range rects {
			rects[j] = geom.Rect{X: xs[rng.IntN(len(xs))], Y: rng.Float64() * 1000, L: rng.Float64() * 40, B: rng.Float64() * 12}
		}
		rels[i] = NewRelation(name, rects)
	}
	return append(ws, orderWorkload{"ties", q2(), rels})
}

// orderConfigs are the in-process axes; kill/resume and the distributed
// widths are driven separately.
func orderConfigs() map[string]Config {
	base := Config{Reducers: 16, NumMappers: 4, Parallelism: 1}
	with := func(f func(*Config)) Config { c := base; f(&c); return c }
	return map[string]Config{
		"base": base,
		"par2": with(func(c *Config) { c.Parallelism = 2 }),
		"par8": with(func(c *Config) { c.Parallelism = 8 }),
		"faults": with(func(c *Config) {
			c.Parallelism = 2
			c.MaxAttempts = 3
			c.FailMap = func(m, attempt int) bool { return m%2 == 0 && attempt == 1 }
			c.FailReduce = func(r, attempt int) bool { return r%3 == 0 && attempt < 3 }
		}),
		"all": with(func(c *Config) {
			c.Parallelism, c.MaxAttempts = 8, 2
			c.FailMap = func(m, attempt int) bool { return m%2 == 1 && attempt == 1 }
			c.FailReduce = func(r, attempt int) bool { return r%4 == 1 && attempt == 1 }
		}),
	}
}

// orderHash fingerprints a result: the tuples in order, and the Stats
// minus the wall clocks and the two counters that record which mapper
// happened to hold which record — how many runs and framed bytes
// crossed between workers. What those runs carry (pairs, bytes) is
// pinned.
func orderHash(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	for _, tu := range res.Tuples {
		binary.Write(h, binary.LittleEndian, int32(len(tu.IDs)))
		binary.Write(h, binary.LittleEndian, tu.IDs)
	}
	tuples := hex.EncodeToString(h.Sum(nil)[:8])

	st := res.Stats
	st.Wall = 0
	st.Rounds = make([]*mapreduce.Stats, len(res.Stats.Rounds))
	for i, r := range res.Stats.Rounds {
		rr := *r
		rr.MapWall, rr.ReduceWall, rr.TotalWall = 0, 0, 0
		rr.ShuffleNetworkRuns, rr.ShuffleNetworkBytes = 0, 0
		st.Rounds[i] = &rr
	}
	js, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	return fmt.Sprintf("%d:%s/%s", len(res.Tuples), tuples, hex.EncodeToString(sum[:8]))
}

func TestCascadeOrderIdentity(t *testing.T) {
	got := map[string]string{}
	record := func(key string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = orderHash(t, res)
	}
	for _, w := range orderWorkloads() {
		for name, cfg := range orderConfigs() {
			res, err := Execute(Cascade, w.q, w.rels, cfg)
			record(w.name+"/"+name, res, err)
		}
		// The plain and the everything-at-once config again, killed
		// before every chain job and resumed on the same FS, and on
		// SPMD clusters, where every worker must hold the same result.
		for _, name := range []string{"par2", "all"} {
			for k := 0; k < w.q.NumSlots()-1; k++ {
				cfg := orderConfigs()[name]
				cfg.FS = dfs.New(0)
				cfg.FailJob = func(i int) bool { return i == k }
				var killed *mapreduce.ChainKilledError
				if _, err := Execute(Cascade, w.q, w.rels, cfg); !errors.As(err, &killed) {
					t.Fatalf("%s kill@%d: err = %v", w.name, k, err)
				}
				cfg.FailJob, cfg.Resume = nil, true
				res, err := Execute(Cascade, w.q, w.rels, cfg)
				record(fmt.Sprintf("%s/%s/resume@%d", w.name, name, k), res, err)
			}
			for _, width := range []int{1, 3} {
				results, errs := executeDistributed(t, width, Cascade, w.q, w.rels, orderConfigs()[name])
				for self := range results {
					key := fmt.Sprintf("%s/%s/dist-w%d", w.name, name, width)
					prev, seen := got[key]
					record(key, results[self], errs[self])
					if seen && got[key] != prev {
						t.Errorf("%s: worker %d disagrees with worker 0", key, self)
					}
				}
			}
		}
	}

	if os.Getenv("MWSJ_WRITE_CASCADE_GOLDEN") != "" {
		js, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(orderGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(orderGoldenFile, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readOrderGolden(t)
	for key, h := range got {
		if want[key] != h {
			t.Errorf("%s: got %s, the parent commit produced %s", key, h, want[key])
		}
	}
}

func readOrderGolden(t *testing.T) map[string]string {
	t.Helper()
	js, err := os.ReadFile(orderGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(js, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestCascadeResumesParentSnapshot resumes from a DFS image the parent
// commit's code wrote after its first cascade step: the checkpoint
// bytes on it must read back unchanged, into the same final answer.
func TestCascadeResumesParentSnapshot(t *testing.T) {
	w := orderWorkloads()[0]
	cfg := orderConfigs()["par2"]
	if os.Getenv("MWSJ_WRITE_CASCADE_GOLDEN") != "" {
		cfg.FS = dfs.New(0)
		cfg.FailJob = func(i int) bool { return i == 1 }
		var killed *mapreduce.ChainKilledError
		if _, err := Execute(Cascade, w.q, w.rels, cfg); !errors.As(err, &killed) {
			t.Fatalf("kill: err = %v", err)
		}
		var buf bytes.Buffer
		if err := cfg.FS.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(orderSnapshotFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	img, err := os.ReadFile(orderSnapshotFile)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.ReadSnapshot(bytes.NewReader(img), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FS, cfg.Resume = fs, true
	res, err := Execute(Cascade, w.q, w.rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Chain.ResumedJobs != 1 {
		t.Errorf("resumed %d jobs, want 1", res.Stats.Chain.ResumedJobs)
	}
	// Same tuples, in the same order, as the clean run; Stats differ by
	// the recovery accounting, which par2/resume@1 above already pins.
	got, _, _ := strings.Cut(orderHash(t, res), "/")
	want, _, _ := strings.Cut(readOrderGolden(t)[w.name+"/base"], "/")
	if got != want {
		t.Errorf("resumed from the parent's snapshot: tuples %s, clean run %s", got, want)
	}
}
