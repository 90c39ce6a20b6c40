package cluster

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/spatial"
)

// allocatedBy returns the heap bytes fn allocated (runtime.MemStats.
// TotalAlloc delta; other goroutines' allocations would count too, so
// callers keep the process quiet).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func readFrom(wire []byte) (*message, error) {
	return readMessage(bufio.NewReaderSize(bytes.NewReader(wire), controlReadBuffer))
}

// TestReadMessageBounds: every length the control plane takes from the
// wire is checked before it sizes an allocation.
func TestReadMessageBounds(t *testing.T) {
	longLine := append(bytes.Repeat([]byte{' '}, maxHeaderBytes), []byte(`{"type":"heartbeat"}`+"\n")...)
	if _, err := readFrom(longLine); !errors.Is(err, errHeaderTooLarge) {
		t.Errorf("header line over the cap: err = %v", err)
	}
	if _, err := readFrom(bytes.Repeat([]byte{'x'}, 2*maxHeaderBytes)); !errors.Is(err, errHeaderTooLarge) {
		t.Errorf("endless header line: err = %v", err)
	}
	bigStats := &message{Type: msgResult, OK: true, Stats: json.RawMessage(`"` + strings.Repeat("s", maxHeaderBytes) + `"`)}
	if _, err := writeMessage(io.Discard, bigStats); !errors.Is(err, errHeaderTooLarge) {
		t.Errorf("writing a header over the cap: err = %v", err)
	}

	if _, err := readFrom([]byte(`{"type":"ship","digests":["a"],"att":[-1]}` + "\n")); err == nil || !strings.Contains(err.Error(), "-1-byte") {
		t.Errorf("negative attachment length: err = %v", err)
	}
	var tooLarge *FrameTooLargeError
	over := fmt.Sprintf(`{"type":"ship","digests":["a"],"att":[%d]}`+"\n", int64(maxFrameBytes)+1)
	if _, err := readFrom([]byte(over)); !errors.As(err, &tooLarge) {
		t.Errorf("attachment over maxFrameBytes: err = %v", err)
	}
	for _, wire := range []string{
		`{"type":"heartbeat","att":[0]}`,
		`{"type":"ship","digests":["a"]}`,
		`{"type":"start","spec":{"relations":[{"name":"a"},{"name":"b"}]},"att":[0,0]}`,
		`{"type":"ship","digests":["a","b"],"att":[0]}`,
		`{"type":"ship","att":[0]}`,
		`{"type":"need","digests":["a"],"att":[0]}`,
		`{"type":"result","ok":true,"arity":3,"count":2}`,
	} {
		if _, err := readFrom([]byte(wire + "\n")); err == nil || !strings.Contains(err.Error(), "attachments") {
			t.Errorf("%s: err = %v, want an attachment-count error", wire, err)
		}
	}

	// A header that declares 1 GiB and delivers 10 bytes costs a chunk,
	// not a gigabyte.
	liar := []byte(fmt.Sprintf(`{"type":"ship","digests":["a"],"att":[%d]}`+"\n0123456789", int64(maxFrameBytes)))
	var err error
	allocated := allocatedBy(func() { _, err = readFrom(liar) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("1 GiB declared, 10 bytes sent: err = %v", err)
	}
	if allocated >= 4<<20 {
		t.Errorf("1 GiB declared, 10 bytes sent: reader allocated %d bytes", allocated)
	}

	// A slab that is not 4 × arity × count bytes is an error, not a
	// shorter tuple set.
	for _, c := range []struct{ arity, count, slab int }{
		{3, 2, 20}, {3, 2, 28}, {0, 2, 8}, {2, 1 << 40, 8}, {-1, 1, 4}, {1 << 62, 4, 16},
	} {
		wire := fmt.Sprintf(`{"type":"result","ok":true,"arity":%d,"count":%d,"att":[%d]}`+"\n", c.arity, c.count, c.slab)
		if _, err := readFrom(append([]byte(wire), make([]byte, c.slab)...)); err == nil || !strings.Contains(err.Error(), "slab") {
			t.Errorf("result arity %d count %d with a %d-byte slab: err = %v", c.arity, c.count, c.slab, err)
		}
	}
	if _, err := readFrom([]byte(`{"type":"result","ok":true,"arity":2,"count":-1}` + "\n")); err == nil {
		t.Error("result with a negative count decoded")
	}

	// Past one chunk an attachment is read in pieces and arrives whole.
	big := make([]byte, 2*dfs.DeclaredChunk+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var wire bytes.Buffer
	if _, err := writeMessage(&wire, &message{Type: msgShip, Digests: []string{"a"}, Rels: [][]byte{big}}); err != nil {
		t.Fatal(err)
	}
	if got, err := readFrom(wire.Bytes()); err != nil || len(got.Rels) != 1 || !bytes.Equal(got.Rels[0], big) {
		t.Errorf("multi-chunk attachment did not round-trip (err %v)", err)
	}
}

// TestResultSlabBound: a result's IDs are allocated only once its slab
// has arrived. A header that declares a 1 GiB slab — 2²⁷ tuples of
// arity 2, which checkSlab accepts — followed by 10 bytes fails with
// io.ErrUnexpectedEOF, having allocated less than two dfs.DeclaredChunk:
// the chunk the bytes arrived in and the header's decoding, not the
// gigabyte.
func TestResultSlabBound(t *testing.T) {
	const slab = maxFrameBytes
	wire := fmt.Sprintf(`{"type":"result","ok":true,"arity":2,"count":%d,"att":[%d]}`+"\n0123456789", slab/8, slab)
	br := bufio.NewReaderSize(strings.NewReader(wire), controlReadBuffer)
	var err error
	allocated := allocatedBy(func() { _, err = readMessage(br) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a 1 GiB slab declared, 10 bytes sent: err = %v, want unexpected EOF", err)
	}
	if allocated >= 2*dfs.DeclaredChunk {
		t.Errorf("a 1 GiB slab declared, 10 bytes sent: the reader allocated %d bytes, bound %d", allocated, 2*dfs.DeclaredChunk)
	}
}

// FuzzReadMessage: whatever bytes arrive on a control connection,
// readMessage returns an error or a message that re-encodes to one that
// decodes equal; it never panics and never allocates beyond the input's
// own size (times the JSON decoder's blow-up of a header) plus one
// chunk.
func FuzzReadMessage(f *testing.F) {
	for _, m := range sampleMessages() {
		var wire bytes.Buffer
		if _, err := writeMessage(&wire, m); err != nil {
			f.Fatal(err)
		}
		f.Add(wire.Bytes())
	}
	f.Add([]byte(fmt.Sprintf(`{"type":"ship","digests":["a"],"att":[%d]}`+"\nxx", int64(maxFrameBytes))))
	// Results whose slab is not 4-byte ids, does not hold count × arity
	// of them, or is cut short.
	f.Add([]byte(`{"type":"result","ok":true,"arity":1,"count":1,"att":[5]}` + "\n\x01\x00\x00\x00\x02"))
	f.Add([]byte(`{"type":"result","ok":true,"arity":2,"count":3,"att":[16]}` + "\n" + strings.Repeat("\x07", 16)))
	f.Add([]byte(`{"type":"result","ok":true,"arity":2,"count":2,"att":[16]}` + "\n" + strings.Repeat("\x07", 10)))
	f.Fuzz(func(t *testing.T, wire []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(wire), controlReadBuffer)
		var m *message
		var err error
		allocated := allocatedBy(func() { m, err = readMessage(br) })
		// 64 bytes of decoded structure per header byte is beyond what
		// encoding/json makes of any input; the slack absorbs the fuzz
		// engine's own goroutines.
		if limit := uint64(64*len(wire) + dfs.DeclaredChunk + 1<<20); allocated > limit {
			t.Fatalf("reading %d bytes allocated %d, limit %d", len(wire), allocated, limit)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		n, err := writeMessage(&again, m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		back, err := readFrom(again.Bytes())
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if !sameMessage(back, m) || back.wireBytes != n {
			t.Fatalf("re-encoded message decodes differently:\n got %+v\nwant %+v", back, m)
		}
	})
}

// TestHashTuplesPinned pins hashTuples to its definition — sha-256 over
// uvarint(len) ‖ Tuple.Key() per tuple of the carved result — so
// RunResult.Hash for a tuple set stays what every earlier build
// computed. The sets are rows of one arity each, as a result's are.
func TestHashTuplesPinned(t *testing.T) {
	reference := func(tuples []spatial.Tuple) string {
		h := sha256.New()
		var buf [binary.MaxVarintLen64]byte
		for _, t := range tuples {
			n := binary.PutUvarint(buf[:], uint64(len(t.IDs)))
			h.Write(buf[:n])
			h.Write([]byte(t.Key()))
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	rng := rand.New(rand.NewPCG(20, 13))
	sets := []spatial.Rows{{Arity: 3}, {Arity: 3, IDs: []int32{}}, {Arity: 1, IDs: []int32{-1}}}
	for _, n := range []int{1, 7, 600, 5000} {
		narrow, wide := spatial.Rows{Arity: 3}, spatial.Rows{Arity: 1 + rng.IntN(200)}
		for range n {
			narrow.IDs = append(narrow.IDs, rng.Int32(), -rng.Int32(), rng.Int32N(100))
			for range wide.Arity {
				wide.IDs = append(wide.IDs, int32(rng.Uint32()))
			}
		}
		sets = append(sets, narrow, wide)
	}
	for i, set := range sets {
		if got, want := hashTuples(set), reference(set.Tuples()); got != want {
			t.Errorf("set %d (%d rows of %d): hash %s, definition gives %s", i, set.Len(), set.Arity, got, want)
		}
	}
}

// BenchmarkControlPlane is the envelope of one cluster_w2 query, codec
// only, per worker. cold is a worker's first query over 3 × 50,000
// relations: their ship (packed, then each checked against its digest,
// unpacked and summarised), the start that names them and one
// 60,000-tuple result. warm is every later query over them: the start
// and the result alone.
func BenchmarkControlPlane(b *testing.B) {
	spec := SpecFromConfig(mustMethod("2-way-cascade"), "R1 ov R2 and R2 ov R3",
		testRelations(2013, 3, 50000), spatial.Config{Reducers: 64, NumMappers: 8, Parallelism: 1})
	rows := spatial.Rows{Arity: 3}
	for i := range 60000 {
		rows.IDs = append(rows.IDs, int32(i), int32(2*i), int32(3*i))
	}
	stats, err := json.Marshal(spatial.Stats{OutputTuples: int64(rows.Len())})
	if err != nil {
		b.Fatal(err)
	}
	start := &message{Type: msgStart, Session: "s0001", Roster: []string{"127.0.0.1:1", "127.0.0.1:2"}, Spec: &spec}
	for _, cold := range []bool{true, false} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			var wire bytes.Buffer
			var total int64
			for i := 0; i < b.N; i++ {
				wire.Reset()
				total = 0
				if cold {
					ship := &message{Type: msgShip, Session: "s0001"}
					for _, ref := range spec.Relations {
						rel, _ := spec.relation(ref.Digest)
						ship.Digests = append(ship.Digests, ref.Digest)
						ship.Rels = append(ship.Rels, packRelation(rel))
					}
					n, err := writeMessage(&wire, ship)
					if err != nil {
						b.Fatal(err)
					}
					total += n
				}
				n, err := writeMessage(&wire, start)
				if err != nil {
					b.Fatal(err)
				}
				total += n
				n, err = writeMessage(&wire, &message{Type: msgResult, Session: "s0001", OK: true, Hash: "h", Stats: stats, Arity: rows.Arity, Count: rows.Len(), IDs: rows.IDs})
				if err != nil {
					b.Fatal(err)
				}
				total += n
				br := bufio.NewReaderSize(&wire, controlReadBuffer)
				if cold {
					got, err := readMessage(br)
					if err != nil {
						b.Fatal(err)
					}
					for k, d := range got.Digests {
						if _, err := unpackRelation(d, got.Rels[k]); err != nil {
							b.Fatal(err)
						}
					}
				}
				if _, err := readMessage(br); err != nil {
					b.Fatal(err)
				}
				res, err := readMessage(br)
				if err != nil {
					b.Fatal(err)
				}
				if back := (spatial.Rows{Arity: res.Arity, IDs: res.IDs}).Tuples(); len(back) != rows.Len() {
					b.Fatalf("result: %d tuples", len(back))
				}
			}
			b.SetBytes(total)
		})
	}
}

// TestRegisterProtocolVersion: a worker built against another framing is
// turned away at registration — with a log line naming both versions —
// instead of mis-parsing an attachment mid-session. The first line sent
// here is exactly what the JSON-lines workers before protocol 2 sent;
// the second is a worker one version behind, which waits for the
// coordinator to copy checkpoints between survivors where this one's
// agree on a resume prefix among themselves.
func TestRegisterProtocolVersion(t *testing.T) {
	logged := make(chan string, 16)
	coord, err := StartCoordinator(CoordinatorConfig{Logf: func(format string, args ...any) {
		select {
		case logged <- fmt.Sprintf(format, args...):
		default:
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for _, stale := range []int{0, protocolVersion - 1} {
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		hello := fmt.Sprintf(`{"type":"register","proto":%d,"name":"stale","data_addr":"127.0.0.1:1"}`, stale)
		if stale == 0 {
			hello = `{"type":"register","name":"stale","data_addr":"127.0.0.1:1"}`
		}
		if _, err := io.WriteString(conn, hello+"\n"); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("protocol %d worker's connection: read err = %v, want EOF (closed by the coordinator)", stale, err)
		}
		conn.Close()
		if ws := coord.Workers(); len(ws) != 0 {
			t.Errorf("protocol %d worker joined the roster: %+v", stale, ws)
		}
		want := fmt.Sprintf("control protocol %d, this coordinator speaks %d", stale, protocolVersion)
	wait:
		for {
			select {
			case line := <-logged:
				if strings.Contains(line, want) && strings.Contains(line, `"stale"`) {
					break wait
				}
			default:
				t.Fatalf("no log line naming both protocol versions (want %q)", want)
			}
		}
	}
}

// BenchmarkHashTuples hashes a cluster_w2-sized result: 59,448 rows of
// three IDs.
func BenchmarkHashTuples(b *testing.B) {
	rows := spatial.Rows{Arity: 3, IDs: make([]int32, 3*59448)}
	for i := range rows.IDs {
		rows.IDs[i] = int32(i * 7919)
	}
	b.SetBytes(int64(4 * len(rows.IDs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = hashTuples(rows)
	}
}

var hashSink string
