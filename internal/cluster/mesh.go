package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/mapreduce"
)

// The data plane: each pair of workers in a session's roster shares one
// persistent TCP connection carrying sequence-numbered frames. Every
// engine exchange (mapreduce.Exchanger.AllToAll) happens in the same
// order on every worker, and an exchange reads its peers' frames
// itself, so frame seq N from peer p is the payload of the worker's own
// N-th AllToAll call, and the seq only checks that. Nothing reads a
// connection between exchanges: a peer racing one exchange ahead waits
// in its own send until this worker enters that exchange.

// meshMagic prefixes the hello line of every data connection.
const meshMagic = "MWSJ-MESH1 "

// meshHello identifies a dialed data connection to the acceptor.
type meshHello struct {
	Session string `json:"session"`
	Attempt int    `json:"attempt"`
	From    int    `json:"from"`
}

// defaultExchangeTimeout bounds one AllToAll, sends included; it is a
// backstop — a killed peer resets its connections and surfaces as a
// read error long before this fires.
const defaultExchangeTimeout = 60 * time.Second

// maxFrameBytes bounds one frame's payload on both sides of the wire: a
// quarter of what the 32-bit length field can declare, and two orders
// above the largest exchange the repository's workloads produce.
const maxFrameBytes = 1 << 30

// FrameTooLargeError reports a mesh frame — one about to be sent, or one
// a peer's header declared — longer than the data plane carries.
type FrameTooLargeError struct{ Bytes int64 }

func (e *FrameTooLargeError) Error() string {
	return fmt.Sprintf("cluster: mesh frame of %d bytes exceeds the %d-byte limit", e.Bytes, int64(maxFrameBytes))
}

func checkFrameLen(n int64) error {
	if n > maxFrameBytes {
		return &FrameTooLargeError{Bytes: n}
	}
	return nil
}

// FrameSequenceError reports a peer frame whose sequence number is not
// that of the exchange reading it: a repeated frame, or one that skips
// ahead. Nothing after it can be trusted to be the frame it claims to be.
type FrameSequenceError struct{ Got, Want uint64 }

func (e *FrameSequenceError) Error() string {
	return fmt.Sprintf("cluster: mesh peer sent frame %d where frame %d was due", e.Got, e.Want)
}

// frameHeaderBytes is a frame's header: the sequence number and the
// payload length, little-endian.
const frameHeaderBytes = 8 + 4

// writeFrame writes one frame: the header, then the payload. An empty
// payload is no second write, which on a synchronous pipe would wait for
// a read that never comes.
func writeFrame(w io.Writer, seq uint64, payload []byte) error {
	if err := checkFrameLen(int64(len(payload))); err != nil {
		return err
	}
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint64(hdr[:8], seq)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil || len(payload) == 0 {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// lentFrameMin is the smallest payload readFrame reads into a frame
// from the worker's pool rather than an allocation of its own, and
// recycleFrame hands back: the run exchanges and gathered outputs.
// Barrier frames — counters and an error — stay exact allocations, so a
// pooled frame never carries a few dozen bytes.
const lentFrameMin = 128 << 10

// readFrame reads one frame as writeFrame wrote it. A header declaring
// more than maxFrameBytes fails before any payload is read. A payload of
// lentFrameMin bytes or more is read into a frame from pool when pool
// holds one that large; the frame goes back to pool if the read fails.
// Otherwise the payload's memory follows the bytes that arrive, not the
// length the header claims (dfs.ReadDeclared): a peer that declares a
// gigabyte and sends nothing costs one dfs.DeclaredChunk.
func readFrame(r io.Reader, pool *mapreduce.BufferPool) (seq uint64, payload []byte, err error) {
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	seq = binary.LittleEndian.Uint64(hdr[:8])
	n := int(binary.LittleEndian.Uint32(hdr[8:]))
	if err := checkFrameLen(int64(n)); err != nil {
		return 0, nil, err
	}
	if n < lentFrameMin {
		payload, err = dfs.ReadDeclared(r, n, n)
	} else if payload = pool.GetFrame(n); payload != nil {
		if _, err = io.ReadFull(r, payload); err != nil {
			pool.PutFrame(payload)
			err = dfs.Truncated(err)
		}
	} else {
		payload, err = dfs.ReadDeclared(r, n, mapreduce.FrameCap(n))
	}
	if err != nil {
		return 0, nil, err
	}
	return seq, payload, nil
}

// recycleFrame hands a payload of lentFrameMin bytes or more back to
// pool. The caller must hold the only reference to its bytes.
func recycleFrame(pool *mapreduce.BufferPool, payload []byte) {
	if len(payload) >= lentFrameMin {
		pool.PutFrame(payload)
	}
}

// mesh implements mapreduce.Exchanger over one connection per peer.
type mesh struct {
	self    int
	conns   []net.Conn // indexed by peer; nil at self
	seq     uint64
	timeout time.Duration
	// pool is where the peers' payloads are read into and go back to:
	// the worker's pool, whose frames the engine encodes its own in.
	pool *mapreduce.BufferPool

	// exchanges counts completed AllToAll entries; when dieAfter is
	// positive and the counter reaches it, onDie fires before the
	// exchange proceeds — the deterministic mid-round kill hook the
	// recovery tests and TestDaemonClusterEndToEnd are built on.
	exchanges int
	dieAfter  int
	onDie     func()

	// lent holds the peers' payloads the last AllToAll returned, until
	// the engine (or, after it returns, executeAttempt) calls Recycle.
	lent [][]byte
}

// dialMesh connects this worker to the session roster: the lower
// session index dials the higher, the higher accepts through reg. The
// peers' payloads are read into frames of pool.
func dialMesh(self int, roster []string, session string, attempt int, reg *meshRegistry, pool *mapreduce.BufferPool, timeout time.Duration) (*mesh, error) {
	if timeout <= 0 {
		timeout = defaultExchangeTimeout
	}
	m := &mesh{self: self, conns: make([]net.Conn, len(roster)), timeout: timeout, pool: pool}
	for p := range roster {
		var c net.Conn
		var err error
		switch {
		case p == self:
			continue
		case self < p:
			c, err = dialPeer(roster[p], session, attempt, self, timeout)
		default:
			c, err = reg.accept(session, attempt, p, timeout)
		}
		if err != nil {
			m.close()
			return nil, fmt.Errorf("cluster: mesh setup with peer %d: %w", p, err)
		}
		m.conns[p] = c
	}
	return m, nil
}

func dialPeer(addr, session string, attempt, from int, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	hello, err := json.Marshal(meshHello{Session: session, Attempt: attempt, From: from})
	if err != nil {
		c.Close()
		return nil, err
	}
	if _, err := fmt.Fprintf(c, "%s%s\n", meshMagic, hello); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// AllToAll implements mapreduce.Exchanger: outgoing[p] goes to peer p,
// the returned slice holds what every peer addressed to this worker on
// its own matching call. One deadline, the mesh's timeout from entry,
// bounds the whole exchange on every connection, sends included. Each
// peer's send and receive run side by side, so two workers pushing
// frames larger than the socket buffers at each other still make
// progress, and the call returns once all of them have finished. A
// failure closes its peer's connection, whose stream may have stopped
// mid-frame, and puts back the frames the exchange has read.
func (m *mesh) AllToAll(tag string, outgoing [][]byte) ([][]byte, error) {
	if len(outgoing) != len(m.conns) {
		return nil, fmt.Errorf("cluster: AllToAll %s: %d payloads for a %d-worker mesh", tag, len(outgoing), len(m.conns))
	}
	m.exchanges++
	if m.dieAfter > 0 && m.exchanges >= m.dieAfter && m.onDie != nil {
		m.onDie()
	}
	seq := m.seq
	m.seq++

	deadline := time.Now().Add(m.timeout)
	in := make([][]byte, len(m.conns))
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed error // the exchange's first failure
	)
	fail := func(c net.Conn, err error) {
		mu.Lock()
		if failed == nil {
			failed = fmt.Errorf("cluster: AllToAll %s: %w", tag, err)
		}
		mu.Unlock()
		c.Close() // after the error is kept: it fails this peer's other half
	}
	for p, c := range m.conns {
		if c == nil {
			continue
		}
		if err := c.SetDeadline(deadline); err != nil {
			fail(c, fmt.Errorf("peer %d: %w", p, err))
			continue
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := writeFrame(c, seq, outgoing[p]); err != nil {
				fail(c, fmt.Errorf("send to peer %d: %w", p, err))
			}
		}()
		go func() {
			defer wg.Done()
			got, payload, err := readFrame(c, m.pool)
			if err == nil && got != seq {
				recycleFrame(m.pool, payload)
				err = &FrameSequenceError{Got: got, Want: seq}
			}
			if err != nil {
				fail(c, fmt.Errorf("receive from peer %d: %w", p, err))
				return
			}
			in[p] = payload
		}()
	}
	wg.Wait()
	if failed != nil {
		for _, payload := range in {
			recycleFrame(m.pool, payload)
		}
		return nil, failed
	}
	for p, payload := range in {
		if p != m.self {
			m.lent = append(m.lent, payload)
		}
	}
	in[m.self] = outgoing[m.self]
	return in, nil
}

// Recycle implements mapreduce.Exchanger: it recycles the payloads the
// last AllToAll returned. Only the engine's goroutine may call it: the
// engine once it has decoded them, the worker once the engine returns.
func (m *mesh) Recycle() {
	for i, payload := range m.lent {
		recycleFrame(m.pool, payload)
		m.lent[i] = nil
	}
	m.lent = m.lent[:0]
}

// close ends every peer connection; an AllToAll running on another
// goroutine fails at once.
func (m *mesh) close() {
	for _, c := range m.conns {
		if c != nil {
			c.Close()
		}
	}
}

// meshRegistry rendezvouses accepted data connections with the session
// that awaits them: the worker's data listener reads each hello and
// offers the connection here; dialMesh on the accepting side collects
// it by (session, attempt, from) key.
type meshRegistry struct {
	mu      sync.Mutex
	waiting map[string]chan net.Conn
}

func newMeshRegistry() *meshRegistry {
	return &meshRegistry{waiting: make(map[string]chan net.Conn)}
}

func meshKey(session string, attempt, from int) string {
	return fmt.Sprintf("%s/%d/%d", session, attempt, from)
}

func (r *meshRegistry) slot(key string) chan net.Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch, ok := r.waiting[key]
	if !ok {
		ch = make(chan net.Conn, 1)
		r.waiting[key] = ch
	}
	return ch
}

// offer hands an accepted connection to the awaiting session, closing
// it if nobody collects in time (e.g. a stale attempt).
func (r *meshRegistry) offer(session string, attempt, from int, c net.Conn) {
	ch := r.slot(meshKey(session, attempt, from))
	select {
	case ch <- c:
	default:
		c.Close()
	}
}

// accept collects the connection dialed by the given lower-index peer.
func (r *meshRegistry) accept(session string, attempt, from int, timeout time.Duration) (net.Conn, error) {
	key := meshKey(session, attempt, from)
	ch := r.slot(key)
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	defer func() {
		r.mu.Lock()
		delete(r.waiting, key)
		r.mu.Unlock()
	}()
	select {
	case c := <-ch:
		return c, nil
	case <-deadline.C:
		return nil, fmt.Errorf("cluster: no data connection from peer %d within %v", from, timeout)
	}
}

// serveData runs a worker's data listener: it reads each inbound hello
// line and routes the connection to the session awaiting it.
func serveData(ln net.Listener, reg *meshRegistry) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			hello, err := readHello(c)
			if err != nil {
				c.Close()
				return
			}
			reg.offer(hello.Session, hello.Attempt, hello.From, c)
		}(c)
	}
}

// readHello parses the magic-prefixed hello line off a fresh data
// connection, reading byte-wise so no framed payload is swallowed.
func readHello(c net.Conn) (meshHello, error) {
	c.SetReadDeadline(time.Now().Add(defaultExchangeTimeout))
	defer c.SetReadDeadline(time.Time{})
	line := make([]byte, 0, 128)
	var b [1]byte
	for {
		if _, err := c.Read(b[:]); err != nil {
			return meshHello{}, err
		}
		if b[0] == '\n' {
			break
		}
		if len(line) > 4096 {
			return meshHello{}, fmt.Errorf("cluster: oversized mesh hello")
		}
		line = append(line, b[0])
	}
	if len(line) < len(meshMagic) || string(line[:len(meshMagic)]) != meshMagic {
		return meshHello{}, fmt.Errorf("cluster: bad mesh hello magic")
	}
	var hello meshHello
	if err := json.Unmarshal(line[len(meshMagic):], &hello); err != nil {
		return meshHello{}, fmt.Errorf("cluster: bad mesh hello: %w", err)
	}
	return hello, nil
}
