package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"strconv"

	"mwsjoin/internal/dataset"
	"mwsjoin/internal/geom"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// workload is one set of inputs the benchmark runs. The program under
// test sees only the relation CSVs generate produces.
type workload struct {
	name string
	why  string
	// kind selects the runtime the queries go through: "inproc"
	// (spatial.Execute), "cluster" (coordinator + two loopback workers)
	// or "served" (HTTP clients against server.NewHandler).
	kind string
	// rate converts --seconds into a fixed operation count: timed
	// operations per requested second, as measured on the reference
	// host at the commit that defined the benchmark. A fixed count keeps
	// run length, memory growth and the sampled mix identical on every
	// commit; a slower program takes longer, it does not do less.
	rate float64

	method spatial.Method
	query  string
	cfg    spatial.Config

	generate func(unit int, seed uint64) ([]relData, error)
}

// relData is one generated relation, before it is written as CSV.
type relData struct {
	Name  string
	Rects []geom.Rect
}

const (
	cascadeQuery = "R1 ov R2 and R2 ov R3"
	hybridQuery  = "R1 ov R2 and R2 ra(5) R3"
)

var workloads = []*workload{
	{
		name: "cascade_uniform",
		why:  "baseline method on uniform data: DFS materialisation between rounds, the sweep kernel and output assembly do the work, replication none",
		kind: "inproc", rate: 3.6,
		method: spatial.Cascade, query: cascadeQuery,
		cfg: spatial.Config{Reducers: 64, Columnar: true, Parallelism: 2, NumMappers: 8},
		generate: func(unit int, seed uint64) ([]relData, error) {
			return uniformRels([]string{"R1", "R2", "R3"}, unit, seed)
		},
	},
	{
		name: "crepl_zipf",
		why:  "the paper's method on skew: mark round, replication, a pair-heavy spilling shuffle, R-tree cells and reducer skew do the work, DFS intermediates almost none",
		kind: "inproc", rate: 4.5,
		method: spatial.ControlledReplicateLimit, query: hybridQuery,
		cfg: spatial.Config{Scheme: spatial.PartitionAdaptive, Reducers: 64, Columnar: true,
			SpillBudget: 16 << 10, Parallelism: 2, NumMappers: 8},
		generate: func(unit int, seed uint64) ([]relData, error) {
			return zipfRels([]string{"R1", "R2", "R3"}, unit*9/5, seed)
		},
	},
	{
		name: "cluster_w2",
		why:  "cascade_uniform's relations, query and config through a coordinator and two loopback workers, so the gap to cascade_uniform is the cluster's cost",
		kind: "cluster", rate: 2.4,
		method: spatial.Cascade, query: cascadeQuery,
		cfg: spatial.Config{Reducers: 64, Columnar: true, Parallelism: 1, NumMappers: 8},
		generate: func(unit int, seed uint64) ([]relData, error) {
			return uniformRels([]string{"R1", "R2", "R3"}, unit, seed)
		},
	},
	{
		name: "served_mix",
		why:  "parse, plan, admission, queue, cache and result paging under two concurrent HTTP clients, cache hits beside planned and pinned misses",
		kind: "served", rate: 19,
		generate: func(unit int, seed uint64) ([]relData, error) {
			u, err := uniformRels([]string{"u1", "u2", "u3"}, unit/5, seed)
			if err != nil {
				return nil, err
			}
			z, err := zipfRels([]string{"z1", "z2", "z3"}, unit*3/10, seed)
			return append(u, z...), err
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// uniformRels draws the paper's synthetic relations (dimensions in
// (0,100]) over a square whose side keeps the density of the paper's
// 10⁶ rectangles on 100,000², one seed per relation.
func uniformRels(names []string, n int, seed uint64) ([]relData, error) {
	p := dataset.PaperDefaults(n)
	side := 100_000 * math.Sqrt(float64(n)/1e6)
	p.XMax, p.YMax = side, side
	out := make([]relData, len(names))
	for i, name := range names {
		rects, err := dataset.Synthetic(p, seed+101*uint64(i+1))
		if err != nil {
			return nil, err
		}
		out[i] = relData{Name: name, Rects: rects}
	}
	return out, nil
}

// zipfLayoutSeed fixes where the Zipf generator puts its clusters. The
// cluster layout decides how hard the join is — with the layout drawn
// from --seed, one seed in ten lands two hot clusters on each other or
// on the border and the query takes twice as long — so the layout is
// part of the workload and --seed decides which rectangle goes to
// which relation.
const zipfLayoutSeed = 2013

// zipfRels deals one Zipf-clustered draw into the named relations, in
// an order shuffled by the seed, so their hot clusters coincide without
// the relations being identical.
func zipfRels(names []string, total int, seed uint64) ([]relData, error) {
	rects, err := dataset.ZipfClustered(dataset.SkewedDefaults(total), zipfLayoutSeed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x7a697066))
	rng.Shuffle(len(rects), func(i, j int) { rects[i], rects[j] = rects[j], rects[i] })
	out := make([]relData, len(names))
	for i, name := range names {
		out[i].Name = name
	}
	for i, r := range rects {
		k := i % len(names)
		out[k].Rects = append(out[k].Rects, r)
	}
	return out, nil
}

func csvPath(dir, rel string) string { return filepath.Join(dir, rel+".csv") }

// sig is a canonical, order-independent fingerprint of a tuple set:
// the tuple count and the wrapping sum of a 64-bit hash per tuple.
type sig struct {
	N int64  `json:"n"`
	H uint64 `json:"h"`
}

func (s *sig) add(ids []int32) {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		h = (h ^ uint64(uint32(id))) * 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	s.N++
	s.H += h
}

func sigOf(tuples []spatial.Tuple) sig {
	var s sig
	for _, t := range tuples {
		s.add(t.IDs)
	}
	return s
}

// bruteForce is the oracle: the single-machine reference join of the
// query over the named relations.
func bruteForce(text string, rels map[string]spatial.Relation) (sig, error) {
	q, err := query.Parse(text)
	if err != nil {
		return sig{}, err
	}
	bound := make([]spatial.Relation, q.NumSlots())
	for i, slot := range q.Slots() {
		rel, ok := rels[slot]
		if !ok {
			return sig{}, fmt.Errorf("oracle: query %q names unknown relation %q", text, slot)
		}
		bound[i] = rel
	}
	res, err := spatial.Execute(spatial.BruteForce, q, bound, spatial.Config{})
	if err != nil {
		return sig{}, fmt.Errorf("oracle %q: %w", text, err)
	}
	return sigOf(res.Tuples), nil
}

// The served mix. Hot queries repeat and are served from the result
// cache; miss families carry a unique ra(d) per operation, so every
// text is new to the cache while the answer stays the family's.
type servedQuery struct{ Text, Method string }

var servedHot = []servedQuery{
	{"u1 ov u2 and u2 ov u3", "c-rep-l"},
	{"z1 ov z2 and z2 ov z3", "c-rep-l"},
	{"u1 ov u2 and u2 ra(8) u3", "2-way-cascade"},
	{"z1 ov z2 and z2 ra(8) z3", "2-way-cascade"},
}

var servedMissFamilies = []string{
	"u1 ov u2 and u2 ra(%s) u3",
	"z1 ov z2 and z2 ra(%s) z3",
}

const (
	missStep = 1e-9
	maxMiss  = 10_000
)

// missText renders the k-th unique member of a miss family.
func missText(family string, base float64, k int) string {
	return fmt.Sprintf(family, strconv.FormatFloat(base+float64(k)*missStep, 'g', -1, 64))
}

// oracles runs the brute-force join once per distinct answer the
// workload can produce. For the served miss families it also finds a
// range base such that no pair's distance falls inside the maxMiss
// steps above it: a range join only grows with d, so equal answers at
// both ends mean every text in between shares that answer.
func oracles(w *workload, data []relData) (map[string]sig, float64, error) {
	rels := make(map[string]spatial.Relation, len(data))
	for _, d := range data {
		rels[d.Name] = spatial.NewRelation(d.Name, d.Rects)
	}
	out := map[string]sig{}
	if w.kind != "served" {
		s, err := bruteForce(w.query, rels)
		out[w.query] = s
		return out, 0, err
	}
	for _, h := range servedHot {
		s, err := bruteForce(h.Text, rels)
		if err != nil {
			return nil, 0, err
		}
		out[h.Text] = s
	}
	base := 4.0
search:
	for try := 0; ; try++ {
		if try == 8 {
			return nil, 0, fmt.Errorf("oracle: no range base with a constant answer over %d steps", maxMiss)
		}
		for _, fam := range servedMissFamilies {
			lo, err := bruteForce(missText(fam, base, 0), rels)
			if err != nil {
				return nil, 0, err
			}
			hi, err := bruteForce(missText(fam, base, maxMiss), rels)
			if err != nil {
				return nil, 0, err
			}
			if lo != hi {
				base += 0.01
				continue search
			}
			out[fam] = lo
		}
		return out, base, nil
	}
}
