package cluster

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"sync"
	"syscall"
	"time"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/grid"
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/query"
	"mwsjoin/internal/spatial"
)

// heartbeatInterval paces a worker's heartbeats: what keeps an idle
// worker's control connection delivering bytes, so the coordinator's
// HeartbeatTimeout must be a few of them.
const heartbeatInterval = 100 * time.Millisecond

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
	// ExchangeTimeout bounds one whole mesh exchange, its sends
	// included, and the wait for the relations an attempt asked for
	// (default 60s).
	ExchangeTimeout time.Duration
	// DieAfterExchanges, when positive, kills the worker right before
	// its n-th mesh exchange of a session — a job makes three: its map
	// report, its run shuffle and its output gather — the deterministic
	// mid-round fault the recovery tests and TestDaemonClusterEndToEnd
	// inject. The death is SIGKILL of the whole process, unless
	// DieInProcess is set.
	DieAfterExchanges int
	// DieInProcess makes DieAfterExchanges call Worker.Kill — dropping
	// every connection at once — instead of SIGKILLing the process, so
	// in-process tests observe exactly what peers and coordinator see
	// when a real worker process dies.
	DieInProcess bool
	// Logf receives worker lifecycle logs. May be nil.
	Logf func(format string, args ...any)
}

// workerSession is the per-session state a worker retains across
// attempts: the private DFS holding the staged inputs and every chain
// checkpoint committed so far, which a Resume re-run recovers from.
type workerSession struct {
	fs     *dfs.FS
	meshes []*mesh
	// ctx is every attempt's Context; release cancels it.
	ctx    context.Context
	cancel context.CancelFunc
	// inUse counts what reads or writes the FS in flight — the session's
	// attempts (holdSession): the FS, whose pages they touch, closes only
	// once it is zero.
	inUse    sync.WaitGroup
	released bool
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
	// pool is the worker's own buffer pool: its mesh reads the peers'
	// payloads into it, and every job of its executions runs on it, as
	// each worker process of a deployment owns its memory.
	pool *mapreduce.BufferPool

	// resident holds the relations shipped to this worker.
	resident *residentSet

	mu       sync.Mutex
	sessions map[string]*workerSession
	// shipWait routes a ship answering an attempt's need to that attempt,
	// by shipKey.
	shipWait map[string]chan shipDelivery
	closed   bool

	done     chan struct{}
	ctrlDone chan struct{}
	// wg counts the worker's loops, its session attempts and the
	// releases waiting for the sessions' uses; Close waits for all of
	// them.
	wg sync.WaitGroup
}

// shipDelivery is what a ship brought an attempt that asked for it: the
// relations by digest, or why they did not arrive.
type shipDelivery struct {
	rels map[string]spatial.Relation
	err  error
}

func shipKey(session string, attempt int) string { return fmt.Sprintf("%s/%d", session, attempt) }

// Done closes when the worker's control connection to the coordinator
// is gone — a standalone worker process exits then.
func (w *Worker) Done() <-chan struct{} { return w.ctrlDone }

// StartWorker connects to the coordinator, registers, and starts the
// worker's control and data loops.
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: worker needs a name")
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
		pool:     mapreduce.NewBufferPool(),
		resident: newResidentSet(residentCap),
		sessions: make(map[string]*workerSession),
		shipWait: make(map[string]chan shipDelivery),
		done:     make(chan struct{}),
		ctrlDone: make(chan struct{}),
	}
	if _, err := w.send(&message{Type: msgRegister, Proto: protocolVersion, Name: cfg.Name, DataAddr: dataLn.Addr().String()}); err != nil {
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

// Close tears the worker down cleanly: it cancels every session,
// waits for their attempts to return, and hands their pages back.
func (w *Worker) Close() error {
	if !w.shutdown() {
		return nil
	}
	w.wg.Wait()
	return nil
}

// Kill emulates abrupt worker death for in-process tests: every
// connection drops at once, with no goodbye — exactly what the
// coordinator and the surviving peers observe when a real worker
// process is SIGKILLed. Safe to call from a mesh onDie hook: it waits
// for nothing, and each session's pages go back once its attempts
// return.
func (w *Worker) Kill() { w.shutdown() }

// shutdown drops the worker's connections and releases every session;
// it reports false when the worker was already shut down.
func (w *Worker) shutdown() bool {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return false
	}
	w.closed = true
	close(w.done)
	sessions := w.sessions
	w.sessions = map[string]*workerSession{}
	w.mu.Unlock()
	w.ctrl.Close()
	w.dataLn.Close()
	for _, s := range sessions {
		w.release(s)
	}
	return true
}

// release ends a session the worker no longer keeps: its attempts are
// cancelled and their meshes closed, and once every attempt has
// returned, its FS closes, which hands the pages of its checkpoint
// files back to the worker's pool. The caller has already taken s out
// of w.sessions.
func (w *Worker) release(s *workerSession) {
	w.mu.Lock()
	s.released = true
	meshes := s.meshes
	s.meshes = nil
	w.wg.Add(1)
	w.mu.Unlock()
	s.cancel()
	for _, m := range meshes {
		m.close()
	}
	go func() {
		defer w.wg.Done()
		s.inUse.Wait()
		s.fs.Close()
	}()
}

// send writes one message and returns the bytes it put on the wire.
func (w *Worker) send(m *message) (int64, error) {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	return writeMessage(w.ctrl, m)
}

func (w *Worker) heartbeatLoop() {
	t := time.NewTicker(heartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-t.C:
			if _, err := w.send(&message{Type: msgHeartbeat}); err != nil {
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
			if s := w.holdSession(m.Session); s != nil {
				w.wg.Add(1)
				go func() {
					defer w.wg.Done()
					defer s.inUse.Done()
					w.runSession(m, s)
				}()
			}
		case msgShip:
			w.acceptShip(m)
		case msgEnd:
			w.mu.Lock()
			s := w.sessions[m.Session]
			delete(w.sessions, m.Session)
			w.mu.Unlock()
			if s != nil {
				w.release(s)
			}
		default:
			w.cfg.Logf("worker %s: unknown control message %q", w.cfg.Name, m.Type)
		}
	}
}

// holdSession returns the retained state for a session, creating it
// when the worker holds none, and counts one use of it in flight
// (inUse), which the caller ends with Done; release closes the
// session's FS only after it. Once the worker is closed it returns nil.
func (w *Worker) holdSession(id string) *workerSession {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	s, ok := w.sessions[id]
	if !ok {
		s = &workerSession{fs: dfs.New(0)}
		s.ctx, s.cancel = context.WithCancel(context.Background())
		w.sessions[id] = s
	}
	// s is in w.sessions, and leaves it under w.mu before release waits
	// on inUse, so this Add happens before that Wait.
	s.inUse.Add(1)
	return s
}

// runSession executes one session attempt and reports the result.
func (w *Worker) runSession(m *message, s *workerSession) {
	out, slab, err := w.attemptResult(m, s)
	if err == nil {
		w.cfg.Logf("worker %s: session %s attempt %d done (%d tuples, hash %s)",
			w.cfg.Name, m.Session, m.Attempt, out.Count, out.Hash[:8])
	}
	w.report(m, out, err)
	mapreduce.PutSlab(w.pool, slab) // hashed and, sent or not, read no more
}

// report sends the result of the attempt m started: out, or when the
// attempt failed (err) or out could not be sent whole, a failed result.
// A send that wrote nothing — out did not frame: its Stats outgrew the
// header line, or its IDs a frame — leaves the connection as it was,
// and the coordinator must still hear that the attempt failed; a send
// that wrote part of out leaves a connection that is gone.
func (w *Worker) report(m, out *message, err error) {
	if err == nil {
		var n int64
		if n, err = w.send(out); err == nil {
			return
		}
		if n > 0 {
			w.cfg.Logf("worker %s: result send failed: %v", w.cfg.Name, err)
			return
		}
	}
	w.cfg.Logf("worker %s: session %s attempt %d failed: %v", w.cfg.Name, m.Session, m.Attempt, err)
	if _, err := w.send(&message{Type: msgResult, Session: m.Session, Attempt: m.Attempt, Error: err.Error()}); err != nil {
		w.cfg.Logf("worker %s: result send failed: %v", w.cfg.Name, err)
	}
}

// attemptResult executes one attempt and frames its outcome: the hash
// every member reports, the run's Stats, and on worker 0 the rows,
// which writeMessage encodes as it sends them. Both are read straight
// from the engine's ID slab; no worker builds a tuple or a packed copy.
// The slab came from the worker's pool (DistConfig.Pool), and it is
// returned for the caller to put back once the result is sent.
func (w *Worker) attemptResult(m *message, s *workerSession) (*message, []int32, error) {
	rows, st, err := w.executeAttempt(m, s)
	if err != nil {
		return nil, nil, err
	}
	out := &message{Type: msgResult, Session: m.Session, Attempt: m.Attempt, OK: true, Hash: hashTuples(rows)}
	if out.Stats, err = json.Marshal(st); err != nil {
		return nil, nil, fmt.Errorf("cluster: encode stats: %w", err)
	}
	if m.Self == 0 && rows.Len() > 0 {
		out.Arity, out.Count, out.IDs = rows.Arity, rows.Len(), rows.IDs
	}
	return out, rows.IDs, nil
}

// executeAttempt runs the spec on this worker's share of the roster.
func (w *Worker) executeAttempt(m *message, s *workerSession) (spatial.Rows, spatial.Stats, error) {
	fail := func(err error) (spatial.Rows, spatial.Stats, error) { return spatial.Rows{}, spatial.Stats{}, err }
	if m.Spec == nil {
		return fail(fmt.Errorf("cluster: start without a spec"))
	}
	spec := *m.Spec
	method, err := spatial.ParseMethod(spec.Method)
	if err != nil {
		return fail(err)
	}
	q, err := query.Parse(spec.Query)
	if err != nil {
		return fail(err)
	}
	scheme, err := spatial.ParsePartitionScheme(spec.Scheme)
	if err != nil {
		return fail(err)
	}
	rels, err := w.resolveRelations(m, s)
	if err != nil {
		return fail(err)
	}

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
		Context:        s.ctx,
	}
	if spec.EuclideanLimit {
		cfg.LimitMetric = grid.MetricEuclidean
	}
	if len(m.Roster) > 1 {
		mh, err := dialMesh(m.Self, m.Roster, m.Session, m.Attempt, w.reg, w.pool, w.cfg.ExchangeTimeout)
		if err != nil {
			return fail(err)
		}
		mh.dieAfter = w.cfg.DieAfterExchanges
		mh.onDie = func() { syscall.Kill(syscall.Getpid(), syscall.SIGKILL) }
		if w.cfg.DieInProcess {
			mh.onDie = w.Kill
		}
		w.mu.Lock()
		if s.released {
			w.mu.Unlock()
			mh.close()
			return fail(fmt.Errorf("cluster: session %s released", m.Session))
		}
		s.meshes = append(s.meshes, mh)
		w.mu.Unlock()
		defer func() {
			mh.close()
			mh.Recycle() // Execute has returned: no payload is read any more
		}()
		cfg.Dist = &mapreduce.DistConfig{NumWorkers: len(m.Roster), Self: m.Self, Exchanger: mh, Pool: w.pool}
	} else {
		cfg.Dist = &mapreduce.DistConfig{NumWorkers: 1, Self: 0, Pool: w.pool}
	}
	return spatial.ExecuteRows(method, q, rels, cfg)
}

// resolveRelations finds the relations the start names, slot by slot:
// from the ones the worker keeps, and the rest — never shipped here, or
// evicted since — by asking the coordinator for them (need) within this
// attempt.
func (w *Worker) resolveRelations(m *message, s *workerSession) ([]spatial.Relation, error) {
	refs := m.Spec.Relations
	rels := make([]spatial.Relation, len(refs))
	found := make([]bool, len(refs))
	var missing []string
	for i, ref := range refs {
		if rels[i], found[i] = w.resident.get(ref.Digest); !found[i] && !slices.Contains(missing, ref.Digest) {
			missing = append(missing, ref.Digest)
		}
	}
	if len(missing) > 0 {
		w.cfg.Logf("worker %s: session %s attempt %d needs %d relation(s)", w.cfg.Name, m.Session, m.Attempt, len(missing))
		shipped, err := w.need(s.ctx, m.Session, m.Attempt, missing)
		if err != nil {
			return nil, err
		}
		for i, ref := range refs {
			if !found[i] {
				rels[i] = shipped[ref.Digest]
			}
		}
	}
	for i, ref := range refs {
		rels[i].Name = ref.Name
	}
	return rels, nil
}

// need asks the coordinator for relations and waits for the ship that
// answers, the session's end, or the worker's.
func (w *Worker) need(ctx context.Context, session string, attempt int, digests []string) (map[string]spatial.Relation, error) {
	key := shipKey(session, attempt)
	ch := make(chan shipDelivery, 1)
	w.mu.Lock()
	w.shipWait[key] = ch
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.shipWait, key)
		w.mu.Unlock()
	}()
	if _, err := w.send(&message{Type: msgNeed, Session: session, Attempt: attempt, Digests: digests}); err != nil {
		return nil, fmt.Errorf("cluster: need: %w", err)
	}
	timeout := w.cfg.ExchangeTimeout
	if timeout <= 0 {
		timeout = defaultExchangeTimeout
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case d := <-ch:
		if d.err != nil {
			return nil, d.err
		}
		for _, digest := range digests {
			if _, ok := d.rels[digest]; !ok {
				return nil, fmt.Errorf("cluster: the coordinator's ship lacks relation %.12s", digest)
			}
		}
		return d.rels, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("cluster: session %s released while awaiting relations", session)
	case <-timer.C:
		return nil, fmt.Errorf("cluster: no ship within %v of asking for %d relation(s)", timeout, len(digests))
	}
}

// acceptShip hands the attempt whose need a ship answers the relations
// it carries, each checked against its digest (unpackRelation) and kept.
// A relation that fails its check is kept nowhere, and the attempt fails
// with the *DigestError. A ship no attempt waits for — its attempt has
// ended — is dropped unopened.
func (w *Worker) acceptShip(m *message) {
	w.mu.Lock()
	ch := w.shipWait[shipKey(m.Session, m.Attempt)]
	w.mu.Unlock()
	if ch == nil {
		return
	}
	d := shipDelivery{rels: make(map[string]spatial.Relation, len(m.Digests))}
	if m.Error != "" {
		d.err = fmt.Errorf("cluster: the coordinator could not ship: %s", m.Error)
	}
	for i, digest := range m.Digests {
		if d.err != nil {
			break
		}
		rel, err := unpackRelation(digest, m.Rels[i])
		if err != nil {
			d.err = err
			break
		}
		w.resident.put(digest, rel)
		d.rels[digest] = rel
	}
	select {
	case ch <- d:
	default: // a second ship for one need: the first answered it
	}
}

// hashTuples renders the canonical sha-256 of a result; the coordinator
// compares it across the roster — the cheap distributed bit-identity
// check that guards every clustered run, not only the ones a test
// happens to cover.
//
// The digest is over uvarint(arity) ‖ the row's IDs, each as 4
// little-endian bytes, per row — the bytes uvarint(len(IDs)) ‖
// Tuple.Key() gives per tuple of the carved result — fed from the slab
// through one reused buffer.
func hashTuples(rows spatial.Rows) string {
	h := sha256.New()
	prefix := binary.AppendUvarint(nil, uint64(rows.Arity))
	buf := make([]byte, 0, 4096)
	for i := range rows.Len() {
		buf = append(buf, prefix...)
		for _, id := range rows.At(i) {
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
