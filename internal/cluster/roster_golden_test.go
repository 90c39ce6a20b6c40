package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/spatial"
)

// rosterGoldenFile pins what a two-worker cluster answers for a few
// small seeded queries: the hash every roster member agreed on, and
// worker 0's packed result attachment — its tuple count, arity and
// byte length. It was written on the commit before workers hashed and
// packed straight from the engine's ID slab, so any change to the
// tuples, their order or the bytes the hash reads fails here.
//
// MWSJ_WRITE_ROSTER_GOLDEN=1 rewrites it from the current code, which is
// only meaningful on a commit whose results are the reference.
const rosterGoldenFile = "testdata/roster_hash_golden.json"

type rosterGolden struct {
	Name      string `json:"name"`
	Hash      string `json:"hash"`
	Count     int    `json:"count"`
	Arity     int    `json:"arity"`
	SlabBytes int    `json:"slab_bytes"`
}

// rosterGoldenRelations draws the cases' inputs: 3 × 2,000 of the
// paper's uniform rectangles at its density, and one 6,000-rectangle
// Zipf-clustered draw over a 30,000-wide square, dealt round-robin into
// three relations.
func rosterGoldenRelations(t *testing.T) map[string][]spatial.Relation {
	t.Helper()
	const n = 2000
	names := []string{"R1", "R2", "R3"}
	p := dataset.PaperDefaults(n)
	side := 100_000 * math.Sqrt(float64(n)/1e6)
	p.XMax, p.YMax = side, side
	uniform := make([]spatial.Relation, len(names))
	for i, name := range names {
		rel, err := dataset.SyntheticRelation(name, p, uint64(2013+101*(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		uniform[i] = rel
	}
	zp := dataset.SkewedDefaults(len(names) * n)
	zp.Space = 30_000
	rects, err := dataset.ZipfClustered(zp, 2013)
	if err != nil {
		t.Fatal(err)
	}
	zipf := make([]spatial.Relation, len(names))
	for i, name := range names {
		var mine = rects[:0:0]
		for k := i; k < len(rects); k += len(names) {
			mine = append(mine, rects[k])
		}
		zipf[i] = spatial.NewRelation(name, mine)
	}
	return map[string][]spatial.Relation{"uniform": uniform, "zipf": zipf}
}

// TestRosterHashGolden runs Cascade, C-Rep and C-Rep-L at W = 2 on the
// uniform and the Zipf inputs and holds each RunResult to the golden.
func TestRosterHashGolden(t *testing.T) {
	inputs := rosterGoldenRelations(t)
	tc := startTestCluster(t, 2, func(_ int, wc *WorkerConfig) { wc.Logf = nil })
	cfg := spatial.Config{Reducers: 16, NumMappers: 4, Parallelism: 1}
	var got []rosterGolden
	for _, data := range []string{"uniform", "zipf"} {
		for _, q := range []string{"R1 ov R2 and R2 ov R3", "R1 ov R2 and R2 ra(5) R3"} {
			for _, m := range []spatial.Method{spatial.Cascade, spatial.ControlledReplicate, spatial.ControlledReplicateLimit} {
				res, err := tc.coord.Run(SpecFromConfig(m, q, inputs[data], cfg))
				if err != nil {
					t.Fatalf("%s %s %v: %v", data, q, m, err)
				}
				if res.Workers != 2 {
					t.Fatalf("%s %s %v ran on %d workers, want 2", data, q, m, res.Workers)
				}
				g := rosterGolden{Name: fmt.Sprintf("%s/%s/%v", data, q, m), Hash: res.Hash, Count: len(res.Tuples)}
				if len(res.Tuples) > 0 {
					g.Arity = len(res.Tuples[0].IDs)
				}
				for _, tu := range res.Tuples {
					g.SlabBytes += 4 * len(tu.IDs)
				}
				got = append(got, g)
			}
		}
	}
	if os.Getenv("MWSJ_WRITE_ROSTER_GOLDEN") != "" {
		var buf bytes.Buffer
		for _, g := range got {
			line, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		if err := os.WriteFile(rosterGoldenFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got), rosterGoldenFile)
		return
	}
	raw, err := os.ReadFile(rosterGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []rosterGolden
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var g rosterGolden
		if err := dec.Decode(&g); err != nil {
			t.Fatal(err)
		}
		want = append(want, g)
	}
	if len(want) != len(got) {
		t.Fatalf("golden holds %d cases, the test runs %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("case %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
