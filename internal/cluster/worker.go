package cluster

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"syscall"
	"time"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// WorkerConfig configures one cluster worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's control address (host:port).
	Coordinator string
	// Name identifies the worker to the coordinator; must be unique in
	// the cluster.
	Name string
	// DataAddr is the listen address of the worker's data plane
	// (default "127.0.0.1:0").
	DataAddr string
	// HeartbeatInterval paces the control-plane heartbeats (default
	// 500ms; the coordinator's timeout should be a small multiple).
	HeartbeatInterval time.Duration
	// ExchangeTimeout bounds one mesh rendezvous (default 60s).
	ExchangeTimeout time.Duration
	// DieAfterExchanges, when positive, kills the worker right before
	// its n-th mesh exchange of a session — the deterministic
	// mid-round fault the recovery tests and TestDaemonClusterEndToEnd
	// inject. The default death is SIGKILL of the whole
	// process; OnDie overrides it for in-process tests.
	DieAfterExchanges int
	// DieInProcess makes DieAfterExchanges call Worker.Kill — dropping
	// every connection at once — instead of SIGKILLing the process, so
	// in-process tests observe exactly what peers and coordinator see
	// when a real worker process dies.
	DieInProcess bool
	// OnDie replaces the death behaviour entirely (rarely needed;
	// DieInProcess covers the in-process case).
	OnDie func()
	// Logf receives worker lifecycle logs. May be nil.
	Logf func(format string, args ...any)
}

// workerSession is the per-session state a worker retains across
// attempts: the private DFS holding the staged inputs and every chain
// checkpoint committed so far, which a Resume re-run recovers from.
type workerSession struct {
	fs     *dfs.FS
	meshes []*mesh
}

// Worker is one member of the cluster: it registers with the
// coordinator, heartbeats, and executes session attempts it is
// assigned, shuffling intermediate runs directly with its peers.
type Worker struct {
	cfg    WorkerConfig
	ctrl   net.Conn
	sendMu sync.Mutex
	dataLn net.Listener
	reg    *meshRegistry

	mu       sync.Mutex
	sessions map[string]*workerSession
	closed   bool

	done     chan struct{}
	ctrlDone chan struct{}
	wg       sync.WaitGroup
}

// Done closes when the worker's control connection to the coordinator
// is gone — a standalone worker process exits then.
func (w *Worker) Done() <-chan struct{} { return w.ctrlDone }

// StartWorker connects to the coordinator, registers, and starts the
// worker's control and data loops.
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: worker needs a name")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 500 * time.Millisecond
	}
	if cfg.DataAddr == "" {
		cfg.DataAddr = "127.0.0.1:0"
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	dataLn, err := net.Listen("tcp", cfg.DataAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker data listen: %w", err)
	}
	ctrl, err := net.Dial("tcp", cfg.Coordinator)
	if err != nil {
		dataLn.Close()
		return nil, fmt.Errorf("cluster: dial coordinator: %w", err)
	}
	w := &Worker{
		cfg:      cfg,
		ctrl:     ctrl,
		dataLn:   dataLn,
		reg:      newMeshRegistry(),
		sessions: make(map[string]*workerSession),
		done:     make(chan struct{}),
		ctrlDone: make(chan struct{}),
	}
	if err := w.send(&message{Type: msgRegister, Proto: protocolVersion, Name: cfg.Name, DataAddr: dataLn.Addr().String()}); err != nil {
		w.Close()
		return nil, fmt.Errorf("cluster: register: %w", err)
	}
	w.wg.Add(3)
	go func() { defer w.wg.Done(); serveData(dataLn, w.reg) }()
	go func() { defer w.wg.Done(); w.heartbeatLoop() }()
	go func() { defer w.wg.Done(); w.controlLoop() }()
	w.cfg.Logf("worker %s: registered with %s, data plane on %s", cfg.Name, cfg.Coordinator, dataLn.Addr())
	return w, nil
}

// DataAddr returns the worker's data-plane listen address.
func (w *Worker) DataAddr() string { return w.dataLn.Addr().String() }

// Close tears the worker down cleanly.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	close(w.done)
	var meshes []*mesh
	for _, s := range w.sessions {
		meshes = append(meshes, s.meshes...)
		s.meshes = nil
	}
	w.mu.Unlock()
	w.ctrl.Close()
	w.dataLn.Close()
	for _, m := range meshes {
		m.close()
	}
	w.wg.Wait()
	return nil
}

// Kill emulates abrupt worker death for in-process tests: every
// connection drops at once, with no goodbye — exactly what the
// coordinator and the surviving peers observe when a real worker
// process is SIGKILLed. Safe to call from a mesh onDie hook.
func (w *Worker) Kill() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	close(w.done)
	var meshes []*mesh
	for _, s := range w.sessions {
		meshes = append(meshes, s.meshes...)
		s.meshes = nil
	}
	w.mu.Unlock()
	w.ctrl.Close()
	w.dataLn.Close()
	for _, m := range meshes {
		m.close()
	}
}

func (w *Worker) send(m *message) error {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	_, err := writeMessage(w.ctrl, m)
	return err
}

func (w *Worker) heartbeatLoop() {
	t := time.NewTicker(w.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-t.C:
			if err := w.send(&message{Type: msgHeartbeat}); err != nil {
				return
			}
		}
	}
}

// controlLoop dispatches coordinator messages until the connection
// drops.
func (w *Worker) controlLoop() {
	defer close(w.ctrlDone)
	br := bufio.NewReaderSize(w.ctrl, controlReadBuffer)
	for {
		m, err := readMessage(br)
		if err != nil {
			select {
			case <-w.done:
			default:
				w.cfg.Logf("worker %s: control connection lost: %v", w.cfg.Name, err)
			}
			return
		}
		switch m.Type {
		case msgStart:
			go w.runSession(m)
		case msgListChk:
			w.handleListChk(m)
		case msgFetchChk:
			w.handleFetchChk(m)
		case msgInstallChk:
			w.handleInstallChk(m)
		case msgEnd:
			w.mu.Lock()
			delete(w.sessions, m.Session)
			w.mu.Unlock()
		default:
			w.cfg.Logf("worker %s: unknown control message %q", w.cfg.Name, m.Type)
		}
	}
}

// session returns the retained state for a session, creating it on
// first use.
func (w *Worker) session(id string) *workerSession {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.sessions[id]
	if !ok {
		s = &workerSession{fs: dfs.New(0)}
		w.sessions[id] = s
	}
	return s
}

// runSession executes one session attempt and reports the result.
func (w *Worker) runSession(m *message) {
	out, err := w.attemptResult(m)
	if err == nil {
		w.cfg.Logf("worker %s: session %s attempt %d done (%d tuples, hash %s)",
			w.cfg.Name, m.Session, m.Attempt, out.Count, out.Hash[:8])
		if err = w.send(out); err == nil {
			return
		}
		if !errors.Is(err, errHeaderTooLarge) {
			w.cfg.Logf("worker %s: result send failed: %v", w.cfg.Name, err)
			return // the connection is gone
		}
		// The run's Stats outgrew the header line and nothing was written:
		// the coordinator must still hear that the attempt failed.
	}
	w.cfg.Logf("worker %s: session %s attempt %d failed: %v", w.cfg.Name, m.Session, m.Attempt, err)
	w.reply(&message{Type: msgResult, Session: m.Session, Attempt: m.Attempt, Error: err.Error()})
}

// attemptResult executes one attempt and frames its outcome: the hash
// every member reports, the run's Stats, and on worker 0 the tuples.
func (w *Worker) attemptResult(m *message) (*message, error) {
	res, err := w.executeAttempt(m)
	if err != nil {
		return nil, err
	}
	out := &message{Type: msgResult, Session: m.Session, Attempt: m.Attempt, OK: true, Hash: hashTuples(res.Tuples)}
	if out.Stats, err = json.Marshal(res.Stats); err != nil {
		return nil, fmt.Errorf("cluster: encode stats: %w", err)
	}
	if m.Self == 0 {
		if out.Arity, out.Slab, err = packTuples(res.Tuples); err != nil {
			return nil, err
		}
		out.Count = len(res.Tuples)
	}
	return out, nil
}

// executeAttempt runs the spec on this worker's share of the roster.
func (w *Worker) executeAttempt(m *message) (*spatial.Result, error) {
	if m.Spec == nil {
		return nil, fmt.Errorf("cluster: start without a spec")
	}
	spec := *m.Spec
	method, err := spatial.ParseMethod(spec.Method)
	if err != nil {
		return nil, err
	}
	q, err := query.Parse(spec.Query)
	if err != nil {
		return nil, err
	}
	scheme, err := spatial.ParsePartitionScheme(spec.Scheme)
	if err != nil {
		return nil, err
	}
	rels := make([]spatial.Relation, len(spec.Relations))
	for i, rd := range spec.Relations {
		if rels[i], err = UnpackRelation(rd); err != nil {
			return nil, err
		}
	}

	s := w.session(m.Session)
	cfg := spatial.Config{
		Scheme:         scheme,
		Reducers:       spec.Reducers,
		SplitThreshold: spec.SplitThreshold,
		NumMappers:     spec.NumMappers,
		Parallelism:    spec.Parallelism,
		OptimizeOrder:  spec.OptimizeOrder,
		AllowSelfPairs: spec.AllowSelfPairs,
		Resume:         spec.Resume,
		FS:             s.fs,
	}
	if spec.EuclideanLimit {
		cfg.LimitMetric = grid.MetricEuclidean
	}
	if len(m.Roster) > 1 {
		mh, err := dialMesh(m.Self, m.Roster, m.Session, m.Attempt, w.reg, w.cfg.ExchangeTimeout)
		if err != nil {
			return nil, err
		}
		mh.dieAfter = w.cfg.DieAfterExchanges
		switch {
		case w.cfg.OnDie != nil:
			mh.onDie = w.cfg.OnDie
		case w.cfg.DieInProcess:
			mh.onDie = w.Kill
		default:
			mh.onDie = func() { syscall.Kill(syscall.Getpid(), syscall.SIGKILL) }
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			mh.close()
			return nil, fmt.Errorf("cluster: worker closed")
		}
		s.meshes = append(s.meshes, mh)
		w.mu.Unlock()
		defer mh.close()
		cfg.Dist = &mapreduce.DistConfig{NumWorkers: len(m.Roster), Self: m.Self, Exchanger: mh}
	} else {
		cfg.Dist = &mapreduce.DistConfig{NumWorkers: 1, Self: 0}
	}
	return spatial.Execute(method, q, rels, cfg)
}

// checkpointPrefix scopes the files the coordinator synchronises
// between attempts: the chain checkpoints (mapreduce.ChainConfig
// defaults "chk/<chain>/...").
const checkpointPrefix = "chk/"

func (w *Worker) handleListChk(m *message) {
	s := w.session(m.Session)
	var files []string
	for _, name := range s.fs.List() {
		if strings.HasPrefix(name, checkpointPrefix) {
			files = append(files, name)
		}
	}
	w.reply(&message{Type: msgChkList, Session: m.Session, Files: files})
}

func (w *Worker) handleFetchChk(m *message) {
	s := w.session(m.Session)
	out := &message{Type: msgChkData, Session: m.Session, File: m.File}
	err := s.fs.Scan(m.File, func(rec []byte) error {
		out.Chk = appendRecord(out.Chk, rec)
		return nil
	})
	if err != nil {
		out.Error = err.Error()
	}
	w.reply(out)
}

func (w *Worker) handleInstallChk(m *message) {
	s := w.session(m.Session)
	out := &message{Type: msgChkOK, Session: m.Session, File: m.File}
	// WriteFile copies each record, so the views into m.Chk do not pin it.
	recs, err := splitRecords(m.Chk)
	if err == nil {
		err = s.fs.WriteFile(m.File, recs)
	}
	if err != nil {
		out.Error = err.Error()
	}
	w.reply(out)
}

// reply answers a coordinator request. A failed write means the control
// connection is gone, which controlLoop reports; the coordinator's
// request times out or sees the death on its own.
func (w *Worker) reply(m *message) {
	if err := w.send(m); err != nil {
		w.cfg.Logf("worker %s: %s send failed: %v", w.cfg.Name, m.Type, err)
	}
}

// hashTuples renders the canonical sha-256 of a tuple set; the
// coordinator compares it across the roster — the cheap distributed
// bit-identity check that guards every clustered run, not only the
// ones a test happens to cover.
//
// The digest is over uvarint(len(IDs)) ‖ Tuple.Key() per tuple — each id
// as 4 little-endian bytes — fed from one reused buffer, not a string
// per tuple.
func hashTuples(tuples []spatial.Tuple) string {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	for _, t := range tuples {
		buf = binary.AppendUvarint(buf, uint64(len(t.IDs)))
		for _, id := range t.IDs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		}
		if len(buf) >= 2048 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
