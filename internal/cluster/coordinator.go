package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"mwsjoin/internal/metrics"
	"mwsjoin/internal/spatial"
)

// CoordinatorConfig configures the cluster coordinator.
type CoordinatorConfig struct {
	// Listen is the control-plane listen address (default
	// "127.0.0.1:0").
	Listen string
	// HeartbeatTimeout is how long a worker's control connection may
	// deliver no bytes before the coordinator declares the worker dead
	// and drops the connection (default 2s; at least 4 × the workers'
	// 100 ms heartbeat).
	HeartbeatTimeout time.Duration
	// SessionTimeout bounds one session attempt end to end (default
	// 10min).
	SessionTimeout time.Duration
	// MaxAttempts bounds the run/recover cycle per session (default 3:
	// the initial attempt plus two recoveries).
	MaxAttempts int
	// Metrics receives the server_workers_* gauges. May be nil.
	Metrics *metrics.Registry
	// Logf receives coordinator lifecycle logs. May be nil.
	Logf func(format string, args ...any)
}

// WorkerStatus is one worker's row in the observability surface
// (GET /v1/workers and the status workers section).
type WorkerStatus struct {
	Name     string `json:"name"`
	Addr     string `json:"addr"`
	DataAddr string `json:"data_addr"`
	Alive    bool   `json:"alive"`
	// InFlight counts the session attempts currently placed on the
	// worker.
	InFlight int `json:"in_flight"`
	// LastHeartbeatMillis is the age of the last bytes the worker's
	// control connection delivered: a heartbeat, or any part of any
	// other message.
	LastHeartbeatMillis int64 `json:"last_heartbeat_ms"`
	// Sessions counts the session attempts the worker has completed.
	Sessions int64 `json:"sessions"`
}

// RunResult is one completed cluster query.
type RunResult struct {
	Tuples []spatial.Tuple
	// Stats is worker 0's view of the run; under SPMD every worker
	// reports identical totals (walls aside), so one view is the
	// cluster's.
	Stats spatial.Stats
	// Workers is the roster size of the final (successful) attempt.
	Workers int
	// Attempts counts the attempts the session took; > 1 means the
	// coordinator recovered from worker loss.
	Attempts int
	// Hash is the canonical tuple-set hash every roster member agreed
	// on.
	Hash string

	// What the control plane cost the final attempt — outputs for logs
	// and experiments, nothing reads them back. ShipWall is how long
	// writing start to the whole roster took; WaitWall runs from the
	// first start byte to the last member's result being read off the
	// wire (the engine's own time, and the ships answering needs, are
	// inside it); CollectWall is decoding the result and comparing the
	// roster's hashes.
	ShipWall, WaitWall, CollectWall time.Duration
	// SpecBytes are the start and ship messages written — so the
	// relations shipped to members that asked for them, and on a warm
	// roster only the digest lists — and ResultBytes the result
	// messages read, header lines and attachments, summed over the
	// roster.
	SpecBytes, ResultBytes int64
}

// member is the coordinator's view of one registered worker.
type member struct {
	name     string
	addr     string
	dataAddr string
	conn     net.Conn
	sendMu   sync.Mutex

	mu       sync.Mutex
	lastBeat time.Time
	alive    bool
	inFlight int
	sessions int64
	// inbox receives result and need messages routed by the member's
	// reader goroutine; dead closes when the connection drops.
	inbox chan *message
	dead  chan struct{}
}

// send writes one message and returns its size on the wire.
func (m *member) send(msg *message) (int64, error) {
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	return writeMessage(m.conn, msg)
}

// Coordinator owns cluster membership and runs query sessions across
// the registered workers.
type Coordinator struct {
	cfg CoordinatorConfig
	ln  net.Listener

	mu      sync.Mutex
	members []*member
	nextSes int

	// runMu serializes sessions: one distributed query runs at a time
	// (the SPMD lockstep would interleave exchanges of concurrent
	// sessions safely — they key on session ids — but placement and
	// recovery bookkeeping stay much simpler serialized).
	runMu sync.Mutex

	done chan struct{}
	wg   sync.WaitGroup
}

// StartCoordinator opens the control listener and starts accepting
// worker registrations.
func StartCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 2 * time.Second
	}
	if cfg.HeartbeatTimeout < 4*heartbeatInterval {
		return nil, fmt.Errorf("cluster: heartbeat timeout %v is below 4 × the workers' %v heartbeat", cfg.HeartbeatTimeout, heartbeatInterval)
	}
	if cfg.SessionTimeout <= 0 {
		cfg.SessionTimeout = 10 * time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("cluster: coordinator listen: %w", err)
	}
	c := &Coordinator{cfg: cfg, ln: ln, done: make(chan struct{})}
	c.wg.Add(1)
	go func() { defer c.wg.Done(); c.acceptLoop() }()
	c.cfg.Logf("coordinator: control plane on %s", ln.Addr())
	return c, nil
}

// Addr returns the coordinator's control address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close shuts the coordinator down and drops every worker connection.
func (c *Coordinator) Close() error {
	select {
	case <-c.done:
		return nil
	default:
	}
	close(c.done)
	c.ln.Close()
	c.mu.Lock()
	for _, m := range c.members {
		m.conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
	return nil
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() { defer c.wg.Done(); c.serveWorker(conn) }()
	}
}

// serveWorker owns one worker's control connection: it requires a
// register message first, then drops heartbeats and routes everything
// else into the member's inbox. Every read waits at most
// HeartbeatTimeout for bytes (beatReader), so the loop ends — and the
// member is dead — when the connection drops or falls silent.
func (c *Coordinator) serveWorker(conn net.Conn) {
	beats := &beatReader{conn: conn, timeout: c.cfg.HeartbeatTimeout}
	br := bufio.NewReaderSize(beats, controlReadBuffer)
	hello, err := readMessage(br)
	if err != nil || hello.Type != msgRegister || hello.Name == "" {
		conn.Close()
		return
	}
	if hello.Proto != protocolVersion {
		c.cfg.Logf("coordinator: rejecting worker %q: it speaks control protocol %d, this coordinator speaks %d",
			hello.Name, hello.Proto, protocolVersion)
		conn.Close()
		return
	}

	m := &member{
		name:     hello.Name,
		addr:     conn.RemoteAddr().String(),
		dataAddr: hello.DataAddr,
		conn:     conn,
		lastBeat: time.Now(),
		alive:    true,
		inbox:    make(chan *message, 16),
		dead:     make(chan struct{}),
	}
	c.mu.Lock()
	for _, other := range c.members {
		other.mu.Lock()
		dup := other.alive && other.name == m.name
		other.mu.Unlock()
		if dup {
			c.mu.Unlock()
			c.cfg.Logf("coordinator: rejecting duplicate worker name %q", m.name)
			conn.Close()
			return
		}
	}
	c.members = append(c.members, m)
	c.mu.Unlock()
	beats.m = m
	c.publishGauges()
	c.cfg.Logf("coordinator: worker %s registered (data %s)", m.name, m.dataAddr)

reading:
	for {
		var msg *message
		if msg, err = readMessage(br); err != nil {
			break
		}
		if msg.Type == msgHeartbeat {
			continue
		}
		select {
		case m.inbox <- msg:
		case <-c.done:
			err = net.ErrClosed
			break reading
		}
	}
	m.mu.Lock()
	m.alive = false
	m.mu.Unlock()
	close(m.dead)
	conn.Close()
	c.publishGauges()
	c.cfg.Logf("coordinator: worker %s lost: %v", m.name, err)
}

// beatReader is what a control connection's bufio.Reader reads
// through: each read of the connection waits at most timeout for bytes,
// so a worker is alive while any message of its is arriving — a result
// that takes longer than the timeout to cross the wire, with the
// worker's heartbeats queued behind it, included — and the time the
// reader spends handing a message on is not the worker's silence.
// Every read that returns bytes stamps the member's lastBeat, which
// WorkerStatus reports. m is nil until the worker has registered.
type beatReader struct {
	conn    net.Conn
	timeout time.Duration
	m       *member
}

func (b *beatReader) Read(p []byte) (int, error) {
	b.conn.SetReadDeadline(time.Now().Add(b.timeout))
	n, err := b.conn.Read(p)
	if n > 0 && b.m != nil {
		b.m.mu.Lock()
		b.m.lastBeat = time.Now()
		b.m.mu.Unlock()
	}
	return n, err
}

// Workers reports the observability rows for every worker the
// coordinator has ever seen, registration order.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, 0, len(c.members))
	now := time.Now()
	for _, m := range c.members {
		m.mu.Lock()
		out = append(out, WorkerStatus{
			Name:                m.name,
			Addr:                m.addr,
			DataAddr:            m.dataAddr,
			Alive:               m.alive,
			InFlight:            m.inFlight,
			LastHeartbeatMillis: now.Sub(m.lastBeat).Milliseconds(),
			Sessions:            m.sessions,
		})
		m.mu.Unlock()
	}
	return out
}

// publishGauges refreshes the server_workers_* gauges.
func (c *Coordinator) publishGauges() {
	reg := c.cfg.Metrics
	if reg == nil {
		return
	}
	var alive, deadN, inflight int64
	for _, ws := range c.Workers() {
		if ws.Alive {
			alive++
			inflight += int64(ws.InFlight)
		} else {
			deadN++
		}
	}
	reg.Gauge("server_workers_alive").Set(alive)
	reg.Gauge("server_workers_dead").Set(deadN)
	reg.Gauge("server_workers_inflight_tasks").Set(inflight)
}

// WaitForWorkers blocks until at least n workers are alive.
func (c *Coordinator) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if len(c.aliveMembers()) >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d workers not registered within %v", n, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (c *Coordinator) aliveMembers() []*member {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*member
	for _, m := range c.members {
		m.mu.Lock()
		if m.alive {
			out = append(out, m)
		}
		m.mu.Unlock()
	}
	return out
}

// Run executes one query session across the currently alive workers,
// recovering from worker death by retrying the session on the
// survivors with Resume set: they agree among themselves on the chain
// prefix to resume (mapreduce.Chain.AgreeResume).
func (c *Coordinator) Run(spec SessionSpec) (*RunResult, error) {
	c.runMu.Lock()
	defer c.runMu.Unlock()

	c.mu.Lock()
	c.nextSes++
	session := fmt.Sprintf("s%04d", c.nextSes)
	c.mu.Unlock()

	// However the session ends, every member still alive releases it —
	// its checkpoint files hold pooled pages.
	defer func() { c.endSession(session, c.aliveMembers()) }()
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		roster := c.aliveMembers()
		if len(roster) == 0 {
			return nil, fmt.Errorf("cluster: no alive workers")
		}
		spec.Resume = attempt > 0
		res, failure, err := c.runAttempt(session, attempt, &spec, roster)
		if err != nil {
			return nil, err
		}
		if res != nil {
			res.Attempts = attempt + 1
			c.cfg.Logf("coordinator: session %s done on %d workers, attempt %d: ship %v, wait %v, collect %v; spec %d B, result %d B",
				session, res.Workers, attempt, res.ShipWall, res.WaitWall, res.CollectWall, res.SpecBytes, res.ResultBytes)
			return res, nil
		}
		c.cfg.Logf("coordinator: session %s attempt %d failed (%s), recovering", session, attempt, failure)
	}
	return nil, fmt.Errorf("cluster: session %s failed after %d attempts", session, c.cfg.MaxAttempts)
}

// attemptOutcome is one worker's terminal state within an attempt, and
// what the relations it asked for cost on the way.
type attemptOutcome struct {
	msg       *message
	died      bool
	timedOut  bool
	shipBytes int64
}

// runAttempt places one attempt on the roster and collects every
// member's outcome. It returns (result, "", nil) on success,
// (nil, reason, nil) when the attempt should be retried, and a hard
// error when the session must be abandoned.
func (c *Coordinator) runAttempt(session string, attempt int, spec *SessionSpec, roster []*member) (*RunResult, string, error) {
	dataAddrs := make([]string, len(roster))
	for i, m := range roster {
		dataAddrs[i] = m.dataAddr
	}
	c.cfg.Logf("coordinator: session %s attempt %d on %d workers", session, attempt, len(roster))
	// A start names the relations and carries none: a worker that lacks
	// one asks for it (need), and awaitOutcome ships it.
	shipStart := time.Now()
	specBytes := make([]int64, len(roster))
	for i, m := range roster {
		m.mu.Lock()
		m.inFlight++
		m.mu.Unlock()
		var err error
		if specBytes[i], err = m.send(&message{Type: msgStart, Session: session, Attempt: attempt, Self: i, Roster: dataAddrs, Spec: spec}); err != nil {
			m.conn.Close() // send failure == death; reader will mark it
		}
	}
	res := &RunResult{Workers: len(roster), ShipWall: time.Since(shipStart)}
	c.publishGauges()
	defer func() {
		for _, m := range roster {
			m.mu.Lock()
			m.inFlight--
			m.sessions++
			m.mu.Unlock()
		}
		c.publishGauges()
	}()

	// One waiter per member, so a member asking for relations is
	// answered while another is still being waited for.
	outcomes := make([]attemptOutcome, len(roster))
	expired := make(chan struct{})
	deadline := time.AfterFunc(c.cfg.SessionTimeout, func() { close(expired) })
	defer deadline.Stop()
	var await sync.WaitGroup
	for i, m := range roster {
		await.Add(1)
		go func(i int, m *member) {
			defer await.Done()
			outcomes[i] = c.awaitOutcome(m, session, attempt, spec, expired)
		}(i, m)
	}
	await.Wait()
	for _, o := range outcomes {
		if o.timedOut {
			return nil, "", fmt.Errorf("cluster: session %s attempt %d timed out after %v", session, attempt, c.cfg.SessionTimeout)
		}
	}

	res.WaitWall = time.Since(shipStart)
	collectStart := time.Now()

	var died, failed int
	var failReason string
	for _, o := range outcomes {
		switch {
		case o.died:
			died++
		case !o.msg.OK:
			failed++
			if failReason == "" {
				failReason = o.msg.Error
			}
		}
	}
	if died > 0 {
		return nil, fmt.Sprintf("%d worker(s) died, %d survivor(s) aborted", died, failed), nil
	}
	if failed > 0 {
		// Nobody died: the failure is the job's own (bad query, engine
		// error) and identical on every worker — retrying cannot help.
		return nil, "", fmt.Errorf("cluster: session %s failed: %s", session, failReason)
	}

	// Success: every roster member must agree on the tuple hash.
	hash := outcomes[0].msg.Hash
	for i, o := range outcomes {
		if o.msg.Hash != hash {
			return nil, "", fmt.Errorf("cluster: session %s: worker %s hash %s disagrees with worker %s hash %s — distributed run is not bit-identical",
				session, roster[i].name, o.msg.Hash, roster[0].name, hash)
		}
	}
	first := outcomes[0].msg
	res.Hash = hash
	if err := json.Unmarshal(first.Stats, &res.Stats); err != nil {
		return nil, "", fmt.Errorf("cluster: session %s: bad stats from worker %s: %w", session, roster[0].name, err)
	}
	// readMessage decoded the slab and matched it to its header; the
	// carve is the one copy the caller's tuples take, and an empty result
	// is no tuples, not none.
	ids := first.IDs
	if ids == nil {
		ids = []int32{}
	}
	res.Tuples = spatial.Rows{Arity: first.Arity, IDs: ids}.Tuples()
	for i, o := range outcomes {
		res.SpecBytes += specBytes[i] + o.shipBytes
		res.ResultBytes += o.msg.wireBytes
	}
	res.CollectWall = time.Since(collectStart)
	return res, "", nil
}

// awaitOutcome waits for one member's result of the attempt, its death
// or the attempt's deadline, answering every need the member sends on
// the way.
func (c *Coordinator) awaitOutcome(m *member, session string, attempt int, spec *SessionSpec, expired <-chan struct{}) attemptOutcome {
	var o attemptOutcome
	for {
		select {
		case msg := <-m.inbox:
			if msg.Session != session || msg.Attempt != attempt {
				continue // stale chatter from a previous attempt; drop it
			}
			switch msg.Type {
			case msgResult:
				o.msg = msg
				return o
			case msgNeed:
				c.cfg.Logf("coordinator: session %s: %s needs %d relation(s)", session, m.name, len(msg.Digests))
				n, err := c.ship(m, session, attempt, spec, msg.Digests)
				o.shipBytes += n
				if err != nil {
					m.conn.Close()
				}
			}
		case <-m.dead:
			o.died = true
			return o
		case <-expired:
			o.timedOut = true
			return o
		}
	}
}

// ship sends a member the relations with the given digests, packed for
// this message and kept nowhere after. A digest the spec does not name
// is answered with an error the worker's attempt fails on.
func (c *Coordinator) ship(m *member, session string, attempt int, spec *SessionSpec, digests []string) (int64, error) {
	out := &message{Type: msgShip, Session: session, Attempt: attempt}
	for _, d := range digests {
		rel, found := spec.relation(d)
		if !found {
			out.Error = fmt.Sprintf("session %s names no relation %.12s", session, d)
			out.Digests, out.Rels = nil, nil
			break
		}
		out.Digests = append(out.Digests, d)
		out.Rels = append(out.Rels, packRelation(rel))
	}
	return m.send(out)
}

// endSession releases the session state on the given workers.
func (c *Coordinator) endSession(session string, members []*member) {
	for _, m := range members {
		m.send(&message{Type: msgEnd, Session: session}) // a dead member has no session to release
	}
}
