// Package cluster turns the in-process map-reduce engine into a real
// coordinator/worker runtime: N worker processes execute every job of a
// query in SPMD lockstep — each worker owns its share of map and reduce
// tasks and ships EncodePair-framed runs destined for remote
// reducers over persistent loopback/LAN connections (the network
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
// worker): the shuffle runs, the per-job barriers and the all-gathered
// reducer outputs, as length-prefixed binary frames. Control plane
// (this file and wire.go, coordinator to worker): per session, the
// whole of every input relation to every worker in start, and the
// whole result from worker 0 in result — megabytes, not "small control
// messages" — plus, during recovery, checkpoint files. Each control
// message is a JSON header line followed by its bulk fields as binary
// attachments (packed relation items, one int32 tuple slab, one framed
// record file), so bulk bytes are never quoted, escaped or base64'd;
// the verbs without bulk (register, heartbeat, list_chk, end, …) are
// a line and nothing else.
//
// Recovery: the coordinator detects worker death via heartbeats and
// dead control connections. Survivors of a failed attempt fail fast
// (their mesh exchanges error out), keep their per-session DFS — the
// staged inputs and every chain checkpoint committed before the crash
// — and re-run the session with Resume set after the coordinator has
// synchronised checkpoints across the surviving roster (a straggler
// that crashed mid-job may hold fewer checkpoints than its peers; the
// chain prefix must agree before a resumed run can proceed in
// lockstep).
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"mwsjoin/internal/geom"
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
	msgResult    = "result"    // Session, Attempt, OK, Error, Hash, Stats, Arity, Count, Slab [att] (self 0)
	msgChkList   = "chk_list"  // Session, Files
	msgChkData   = "chk_data"  // Session, File, Chk [att]
	msgChkOK     = "chk_ok"    // Session
	// coordinator → worker
	msgStart      = "start"       // Session, Attempt, Self, Roster, Spec, Spec.Relations[i].Items [att]
	msgListChk    = "list_chk"    // Session
	msgFetchChk   = "fetch_chk"   // Session, File
	msgInstallChk = "install_chk" // Session, File, Chk [att]
	msgEnd        = "end"         // Session — release session state
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
	// Slab is Count result tuples of Arity ids each, flat little-endian
	// int32 (packTuples/unpackTuples).
	Arity int    `json:"arity,omitempty"`
	Count int    `json:"count,omitempty"`
	Slab  []byte `json:"-"`

	Files []string `json:"files,omitempty"`
	File  string   `json:"file,omitempty"`
	// Chk is one checkpoint file, its records appendRecord-framed. The
	// coordinator forwards it from donor to receiver unopened.
	Chk []byte `json:"-"`

	// wireBytes is the size readMessage took the message off the wire at,
	// header line and attachments.
	wireBytes int64
}

// SessionSpec is everything a worker needs to run one query session:
// the query, the relations (shipped raw so every worker stages the
// identical inputs and is charged the identical DFS bytes), and the
// engine knobs that must agree across the roster for the SPMD runs to
// stay in lockstep. NumMappers is always explicit — the in-process
// GOMAXPROCS default would differ across heterogeneous workers.
type SessionSpec struct {
	Method         string         `json:"method"`
	Query          string         `json:"query"`
	Relations      []RelationData `json:"relations"`
	Scheme         string         `json:"scheme,omitempty"`
	Reducers       int            `json:"reducers,omitempty"`
	SplitThreshold float64        `json:"split_threshold,omitempty"`
	NumMappers     int            `json:"num_mappers"`
	Parallelism    int            `json:"parallelism,omitempty"`
	OptimizeOrder  bool           `json:"optimize_order,omitempty"`
	// AllowSelfPairs and EuclideanLimit (Config.LimitMetric ==
	// grid.MetricEuclidean) change the answer — the tuple set; C-Rep-L's
	// pairs and replication counters — so a worker must run under the
	// caller's values, not its own defaults.
	AllowSelfPairs bool `json:"allow_self_pairs,omitempty"`
	EuclideanLimit bool `json:"euclidean_limit,omitempty"`
	// Resume is set by the coordinator on retry attempts: the worker
	// re-runs the session against its retained per-session DFS, so
	// checkpointed chain steps committed before the failure are not
	// re-executed.
	Resume bool `json:"resume,omitempty"`
}

// RelationData is one relation of a spec, packed as 36-byte binary
// items (id + rect). On the wire Items is an attachment of the start
// message, never part of its JSON header.
type RelationData struct {
	Name  string `json:"name"`
	Items []byte `json:"-"`
}

// itemBytes is the packed size of one relation item: id(4) + 4 float64
// rect fields.
const itemBytes = 4 + 32

// PackRelation renders a relation for a SessionSpec.
func PackRelation(rel spatial.Relation) RelationData {
	buf := make([]byte, len(rel.Items)*itemBytes)
	off := 0
	for _, it := range rel.Items {
		binary.LittleEndian.PutUint32(buf[off:], uint32(it.ID))
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(it.R.X))
		binary.LittleEndian.PutUint64(buf[off+12:], math.Float64bits(it.R.Y))
		binary.LittleEndian.PutUint64(buf[off+20:], math.Float64bits(it.R.L))
		binary.LittleEndian.PutUint64(buf[off+28:], math.Float64bits(it.R.B))
		off += itemBytes
	}
	return RelationData{Name: rel.Name, Items: buf}
}

// UnpackRelation parses a RelationData back into a relation.
func UnpackRelation(rd RelationData) (spatial.Relation, error) {
	if len(rd.Items)%itemBytes != 0 {
		return spatial.Relation{}, fmt.Errorf("cluster: relation %q has %d item bytes, not a multiple of %d", rd.Name, len(rd.Items), itemBytes)
	}
	n := len(rd.Items) / itemBytes
	items := make([]spatial.Item, n)
	for i := 0; i < n; i++ {
		off := i * itemBytes
		items[i] = spatial.Item{
			ID: int32(binary.LittleEndian.Uint32(rd.Items[off:])),
			R: geom.Rect{
				X: math.Float64frombits(binary.LittleEndian.Uint64(rd.Items[off+4:])),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(rd.Items[off+12:])),
				L: math.Float64frombits(binary.LittleEndian.Uint64(rd.Items[off+20:])),
				B: math.Float64frombits(binary.LittleEndian.Uint64(rd.Items[off+28:])),
			},
		}
	}
	// Summarised on arrival: the session's Execute validates, bounds and
	// partitions from the summary instead of walking the items again.
	return spatial.Relation{Name: rd.Name, Items: items}.Summarized(), nil
}

// SpecFromConfig assembles a SessionSpec from a query, relations and
// the spatial.Config fields a cluster run honours; the rest stay with
// the calling process (TestSpecCarriesConfig lists each and why).
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
	}
	for _, rel := range rels {
		spec.Relations = append(spec.Relations, PackRelation(rel))
	}
	return spec
}
