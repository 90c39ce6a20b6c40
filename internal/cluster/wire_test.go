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

	if _, err := readFrom([]byte(`{"type":"chk_data","att":[-1]}` + "\n")); err == nil || !strings.Contains(err.Error(), "-1-byte") {
		t.Errorf("negative attachment length: err = %v", err)
	}
	var tooLarge *FrameTooLargeError
	over := fmt.Sprintf(`{"type":"chk_data","att":[%d]}`+"\n", int64(maxFrameBytes)+1)
	if _, err := readFrom([]byte(over)); !errors.As(err, &tooLarge) {
		t.Errorf("attachment over maxFrameBytes: err = %v", err)
	}
	for _, wire := range []string{
		`{"type":"heartbeat","att":[0]}`,
		`{"type":"chk_data"}`,
		`{"type":"start","spec":{"relations":[{"name":"a"},{"name":"b"}]},"att":[0]}`,
		`{"type":"result","ok":true,"arity":3,"count":2}`,
	} {
		if _, err := readFrom([]byte(wire + "\n")); err == nil || !strings.Contains(err.Error(), "attachments") {
			t.Errorf("%s: err = %v, want an attachment-count error", wire, err)
		}
	}

	// A header that declares 1 GiB and delivers 10 bytes costs a chunk,
	// not a gigabyte.
	liar := []byte(fmt.Sprintf(`{"type":"chk_data","att":[%d]}`+"\n0123456789", int64(maxFrameBytes)))
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
	big := make([]byte, 2*declaredChunk+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var wire bytes.Buffer
	if _, err := writeMessage(&wire, &message{Type: msgChkData, Chk: big}); err != nil {
		t.Fatal(err)
	}
	if got, err := readFrom(wire.Bytes()); err != nil || !bytes.Equal(got.Chk, big) {
		t.Errorf("multi-chunk attachment did not round-trip (err %v)", err)
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
	f.Add([]byte(fmt.Sprintf(`{"type":"chk_data","att":[%d]}`+"\nxx", int64(maxFrameBytes))))
	f.Fuzz(func(t *testing.T, wire []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(wire), controlReadBuffer)
		var m *message
		var err error
		allocated := allocatedBy(func() { m, err = readMessage(br) })
		// 64 bytes of decoded structure per header byte is beyond what
		// encoding/json makes of any input; the slack absorbs the fuzz
		// engine's own goroutines.
		if limit := uint64(64*len(wire) + declaredChunk + 1<<20); allocated > limit {
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
// uvarint(len) ‖ Tuple.Key() per tuple — so RunResult.Hash for a tuple
// set stays what every earlier build computed.
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
	sets := [][]spatial.Tuple{nil, {}, {{}}, {{IDs: []int32{-1}}}}
	for _, n := range []int{1, 7, 600, 5000} {
		uniform, mixed := make([]spatial.Tuple, n), make([]spatial.Tuple, n)
		for i := range uniform {
			uniform[i].IDs = []int32{rng.Int32(), -rng.Int32(), rng.Int32N(100)}
			mixed[i].IDs = make([]int32, rng.IntN(200))
			for k := range mixed[i].IDs {
				mixed[i].IDs[k] = int32(rng.Uint32())
			}
		}
		sets = append(sets, uniform, mixed)
	}
	for i, set := range sets {
		if got, want := hashTuples(set), reference(set); got != want {
			t.Errorf("set %d (%d tuples): hash %s, definition gives %s", i, len(set), got, want)
		}
	}
}

// BenchmarkControlPlane is the envelope of one cluster_w2 query, codec
// only: encode and decode one start carrying 3 × 50,000 relations and
// one 60,000-tuple result.
func BenchmarkControlPlane(b *testing.B) {
	spec := SpecFromConfig(mustMethod("2-way-cascade"), "R1 ov R2 and R2 ov R3",
		testRelations(2013, 3, 50000), spatial.Config{Reducers: 64, NumMappers: 8, Parallelism: 1})
	tuples := make([]spatial.Tuple, 60000)
	for i := range tuples {
		tuples[i] = spatial.Tuple{IDs: []int32{int32(i), int32(2 * i), int32(3 * i)}}
	}
	stats, err := json.Marshal(spatial.Stats{OutputTuples: int64(len(tuples))})
	if err != nil {
		b.Fatal(err)
	}
	start := &message{Type: msgStart, Session: "s0001", Roster: []string{"127.0.0.1:1", "127.0.0.1:2"}, Spec: &spec}
	var wire bytes.Buffer
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.Reset()
		n1, err := writeMessage(&wire, start)
		if err != nil {
			b.Fatal(err)
		}
		arity, slab, err := packTuples(tuples)
		if err != nil {
			b.Fatal(err)
		}
		n2, err := writeMessage(&wire, &message{Type: msgResult, Session: "s0001", OK: true, Hash: "h", Stats: stats, Arity: arity, Count: len(tuples), Slab: slab})
		if err != nil {
			b.Fatal(err)
		}
		total = n1 + n2
		br := bufio.NewReaderSize(&wire, controlReadBuffer)
		got, err := readMessage(br)
		if err != nil {
			b.Fatal(err)
		}
		for _, rd := range got.Spec.Relations {
			if _, err := UnpackRelation(rd); err != nil {
				b.Fatal(err)
			}
		}
		res, err := readMessage(br)
		if err != nil {
			b.Fatal(err)
		}
		if back, err := unpackTuples(res.Arity, res.Count, res.Slab); err != nil || len(back) != len(tuples) {
			b.Fatalf("result: %d tuples, err %v", len(back), err)
		}
	}
	b.SetBytes(total)
}

// TestRegisterProtocolVersion: a worker built against another framing is
// turned away at registration — with a log line naming both versions —
// instead of mis-parsing an attachment mid-session. The first line sent
// here is exactly what the JSON-lines workers before protocol 2 sent;
// the second is a worker one version behind, whose map-barrier report
// and session spec differ from this one's.
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
