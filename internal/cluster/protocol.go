// Package cluster turns the in-process map-reduce engine into a real
// coordinator/worker runtime: N worker processes execute every job of a
// query in SPMD lockstep — each worker owns its share of map and reduce
// tasks and ships the runs destined for remote reducers over a mesh of
// loopback/LAN connections dialed for each session attempt (the network
// shuffle) — while a coordinator owns worker membership, heartbeats,
// session placement, and recovery.
//
// The design is deliberately symmetric: every worker runs the same
// deterministic spatial.Execute over the same staged inputs, and every
// worker finishes each session holding the complete, bit-identical
// result — the single-worker case degenerates to the unmodified
// in-process engine, and any existing equivalence battery doubles as a
// distributed-correctness oracle. Cross-worker agreement is enforced
// with a result hash (sha-256 over the canonical tuple keys) that the
// coordinator compares across the roster.
//
// What crosses the wire, and how. Data plane (mesh.go, worker to
// worker), as length-prefixed binary frames, each read by the exchange
// it belongs to under one deadline that bounds the whole exchange, its
// sends included; two exchanges per job, each reducer placed before the
// map by the grid column every worker assigns it: the sender's map
// report (its map attempts, failures and lowest map error), then its
// runs for the reducers placed on the receiver (a mapper's values for
// one reducer, unsorted, in emit order); its reduce report, then
// its reducers' pair counts and outputs (for the 2-way Cascade, page
// segments of the round's checkpoint, not one record per tuple). A resumed attempt first agrees on the committed checkpoint
// prefix in one more exchange. Control plane
// (this file and wire.go, coordinator to worker): per session, a start
// that names the input relations by content digest, and the whole
// result from worker 0 in result — megabytes, not "small control
// messages". Relations live on the workers as the paper's live in HDFS:
// a worker keeps the ones it has been shipped, summarised and staged,
// in a byte-capped cache (resident.go), and asks for one (need) only
// when a start names a digest it does not keep — never shipped to it,
// or evicted since — and the coordinator answers with a ship. Each
// control message is a JSON header line followed by its bulk fields as
// binary attachments (packed relation items, one int32 tuple slab), so
// bulk bytes are never quoted, escaped or base64'd; the verbs without
// bulk (register, heartbeat, start, need, end) are a line and nothing
// else.
//
// Recovery: the coordinator declares a worker dead when its control
// connection drops or delivers no bytes for HeartbeatTimeout — each
// read waits that long, and an idle worker heartbeats to stay heard.
// Survivors of a failed attempt fail fast (their mesh exchanges error
// out), keep their per-session DFS — the staged inputs and every chain
// checkpoint committed before the crash — and re-run the session with
// Resume set. A survivor may have committed one step more than another
// before the peer died mid-exchange, so a resumed chain first agrees
// over the mesh on the prefix every survivor holds
// (mapreduce.Chain.AgreeResume) and re-runs from there in lockstep.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"mwsjoin/internal/grid"
	"mwsjoin/internal/spatial"
)

// Control-plane message types. The control plane is one TCP connection
// per worker, opened by the worker at registration; both sides write
// whole messages (wire.go) under a per-connection mutex. [att] marks a
// field that travels as a binary attachment, not in the header line.
const (
	// worker → coordinator
	msgRegister  = "register"  // Proto, Name, DataAddr
	msgHeartbeat = "heartbeat" //
	msgNeed      = "need"      // Session, Attempt, Digests — relations the start named and the worker lacks
	msgResult    = "result"    // Session, Attempt, OK, Error, Hash, Stats, Arity, Count, IDs [att] (self 0)
	// coordinator → worker
	msgShip  = "ship"  // Session, Attempt, Error, Digests, Rels[i] [att] — answering a need
	msgStart = "start" // Session, Attempt, Self, Roster, Spec
	msgEnd   = "end"   // Session — release session state
)

// message is the single wire envelope of the control plane; Type
// selects which fields are meaningful (see the constants above).
type message struct {
	Type     string `json:"type"`
	Proto    int    `json:"proto,omitempty"`
	Name     string `json:"name,omitempty"`
	DataAddr string `json:"data_addr,omitempty"`

	Session string       `json:"session,omitempty"`
	Attempt int          `json:"attempt,omitempty"`
	Self    int          `json:"self,omitempty"`
	Roster  []string     `json:"roster,omitempty"`
	Spec    *SessionSpec `json:"spec,omitempty"`

	OK    bool            `json:"ok,omitempty"`
	Error string          `json:"error,omitempty"`
	Hash  string          `json:"hash,omitempty"`
	Stats json.RawMessage `json:"stats,omitempty"`
	// IDs is Count result tuples of Arity ids each, the engine's ID slab
	// as it stands (spatial.Rows). It travels as one attachment, flat
	// little-endian int32, encoded as it is written and decoded as it
	// arrives (writeIDs, readIDs).
	Arity int     `json:"arity,omitempty"`
	Count int     `json:"count,omitempty"`
	IDs   []int32 `json:"-"`

	// Digests names relations by content (RelationRef.Digest); on a
	// ship, Rels[i] is the relation Digests[i] names, packed
	// (packRelation), one attachment each.
	Digests []string `json:"digests,omitempty"`
	Rels    [][]byte `json:"-"`

	// wireBytes is the size readMessage took the message off the wire at,
	// header line and attachments.
	wireBytes int64
}

// SessionSpec is everything a worker needs to run one query session:
// the query, the relations by name and content digest (every worker
// stages the identical inputs and is charged the identical DFS bytes),
// and the engine knobs that must agree across the roster for the SPMD
// runs to stay in lockstep. NumMappers is always explicit — the
// in-process GOMAXPROCS default would differ across heterogeneous
// workers.
type SessionSpec struct {
	Method         string        `json:"method"`
	Query          string        `json:"query"`
	Relations      []RelationRef `json:"relations"`
	Scheme         string        `json:"scheme,omitempty"`
	Reducers       int           `json:"reducers,omitempty"`
	SplitThreshold float64       `json:"split_threshold,omitempty"`
	NumMappers     int           `json:"num_mappers"`
	Parallelism    int           `json:"parallelism,omitempty"`
	OptimizeOrder  bool          `json:"optimize_order,omitempty"`
	// AllowSelfPairs and EuclideanLimit (Config.LimitMetric ==
	// grid.MetricEuclidean) change the answer — the tuple set; C-Rep-L's
	// pairs and replication counters — so a worker must run under the
	// caller's values, not its own defaults.
	AllowSelfPairs bool `json:"allow_self_pairs,omitempty"`
	EuclideanLimit bool `json:"euclidean_limit,omitempty"`
	// Resume is set by the coordinator on retry attempts: the worker
	// re-runs the session against its retained per-session DFS, so
	// the chain steps every survivor committed before the failure are
	// not re-executed.
	Resume bool `json:"resume,omitempty"`

	// rels are the relations Relations names, slot by slot: what the
	// coordinator packs when a worker lacks one. They stay in the calling
	// process.
	rels []spatial.Relation
}

// RelationRef names one relation of a spec: the name its query slot
// binds, and the hex sha-256 of its contents (spatial.Relation.Digest),
// by which a worker finds it among the relations it keeps.
type RelationRef struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
}

// packRelation renders a relation's items for a ship attachment, in
// the encoding its digest hashes (spatial.AppendPacked).
func packRelation(rel spatial.Relation) []byte {
	return spatial.AppendPacked(make([]byte, 0, len(rel.Items)*spatial.PackedItemBytes), rel.Items)
}

// unpackRelation checks a ship attachment against the digest it was
// shipped under, before any work is done on it, then parses it into a
// relation. The relation arrives summarised and staged: the sessions
// that bind it validate, bound, partition and stage from the summary
// instead of walking the items again. It has no name; each query names
// it as its spec does.
func unpackRelation(digest string, packed []byte) (spatial.Relation, error) {
	if sum := sha256.Sum256(packed); hex.EncodeToString(sum[:]) != digest {
		return spatial.Relation{}, &DigestError{Want: digest, Got: hex.EncodeToString(sum[:])}
	}
	items, err := spatial.UnpackItems(packed)
	if err != nil {
		return spatial.Relation{}, fmt.Errorf("cluster: relation %.12s: %w", digest, err)
	}
	return spatial.Relation{Items: items}.Summarized(), nil
}

// digestOf renders a relation's content digest as a spec names it.
func digestOf(rel spatial.Relation) string {
	d := rel.Digest()
	return hex.EncodeToString(d[:])
}

// DigestError reports a shipped relation whose contents do not hash to
// the digest it was shipped under. The worker keeps no such relation,
// and the attempt that asked for it fails.
type DigestError struct {
	Want, Got string
}

func (e *DigestError) Error() string {
	return fmt.Sprintf("cluster: shipped relation hashes to %s, not the %s it was shipped as", e.Got, e.Want)
}

// SpecFromConfig assembles a SessionSpec from a query, relations and
// the spatial.Config fields a cluster run honours; the rest stay with
// the calling process (TestSpecCarriesConfig lists each and why). The
// relations are named by digest, which each relation's summary keeps,
// so a spec over relations that earlier specs named costs no pass over
// their items.
func SpecFromConfig(method spatial.Method, queryText string, rels []spatial.Relation, cfg spatial.Config) SessionSpec {
	spec := SessionSpec{
		Method:         method.String(),
		Query:          queryText,
		Scheme:         cfg.Scheme.String(),
		Reducers:       cfg.Reducers,
		SplitThreshold: cfg.SplitThreshold,
		NumMappers:     cfg.NumMappers,
		Parallelism:    cfg.Parallelism,
		OptimizeOrder:  cfg.OptimizeOrder,
		AllowSelfPairs: cfg.AllowSelfPairs,
		EuclideanLimit: cfg.LimitMetric == grid.MetricEuclidean,
		rels:           rels,
	}
	for _, rel := range rels {
		spec.Relations = append(spec.Relations, RelationRef{Name: rel.Name, Digest: digestOf(rel)})
	}
	return spec
}

// relation returns the spec's relation with the given digest.
func (spec *SessionSpec) relation(digest string) (spatial.Relation, bool) {
	for i, ref := range spec.Relations {
		if ref.Digest == digest && i < len(spec.rels) {
			return spec.rels[i], true
		}
	}
	return spatial.Relation{}, false
}
