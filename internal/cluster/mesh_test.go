package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/mapreduce"
)

// pipeMesh makes a one-peer mesh, self 0, whose peer is the returned end
// of an in-memory pipe, for a test to drive by hand.
func pipeMesh(t *testing.T, pool *mapreduce.BufferPool, timeout time.Duration) (*mesh, net.Conn) {
	local, peer := net.Pipe()
	m := &mesh{self: 0, conns: []net.Conn{nil, local}, timeout: timeout, pool: pool}
	t.Cleanup(func() { m.close(); peer.Close() })
	return m, peer
}

// TestMeshFrameBound: a header declaring more than maxFrameBytes fails
// the exchange reading it before any payload buffer is allocated, with
// the structured error, and a payload over the bound is refused at send
// rather than truncated to 32 bits. A header just under the bound
// followed by nothing costs one dfs.DeclaredChunk, not the gigabyte it
// declares.
func TestMeshFrameBound(t *testing.T) {
	pool := mapreduce.NewBufferPool()
	m, peer := pipeMesh(t, pool, 10*time.Second)
	go io.Copy(io.Discard, peer) // takes this worker's frame

	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint64(hdr[:8], 0)
	binary.LittleEndian.PutUint32(hdr[8:], 1<<32-1) // 4 GiB - 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	go peer.Write(hdr[:])
	_, err := m.AllToAll("x", [][]byte{nil, nil})
	runtime.ReadMemStats(&after)
	var tooLarge *FrameTooLargeError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("AllToAll after a 4 GiB header: err = %v, want a FrameTooLargeError", err)
	}
	if tooLarge.Bytes != 1<<32-1 {
		t.Errorf("error reports a %d-byte frame", tooLarge.Bytes)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting the header allocated %d bytes", grew)
	}

	if err := checkFrameLen(maxFrameBytes); err != nil {
		t.Errorf("a frame at the limit was refused: %v", err)
	}
	if err := checkFrameLen(maxFrameBytes + 1); !errors.As(err, &tooLarge) {
		t.Errorf("a frame over the limit: err = %v, want a FrameTooLargeError", err)
	}

	binary.LittleEndian.PutUint32(hdr[8:], maxFrameBytes-1)
	runtime.ReadMemStats(&before)
	_, _, err = readFrame(bytes.NewReader(hdr[:]), pool)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a %d-byte header and then EOF: err = %v, want unexpected EOF", maxFrameBytes-1, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("a %d-byte header and then EOF allocated %d bytes", maxFrameBytes-1, grew)
	}
}

// TestMeshDuplicateFrame: a peer frame whose sequence number is not the
// exchange's fails that exchange with a FrameSequenceError naming both,
// instead of standing in for the frame that was due: frame 0 sent twice,
// the second straight after the first (parked) or only once exchange 0
// has returned (taken), and a first frame numbered 1 (skipped).
func TestMeshDuplicateFrame(t *testing.T) {
	for _, tc := range []struct {
		name string
		seqs [2]uint64 // the peer's two frames
		wait bool      // the second is written once exchange 0 has returned
		want FrameSequenceError
	}{
		{"parked", [2]uint64{0, 0}, false, FrameSequenceError{Got: 0, Want: 1}},
		{"taken", [2]uint64{0, 0}, true, FrameSequenceError{Got: 0, Want: 1}},
		{"skipped", [2]uint64{1, 2}, false, FrameSequenceError{Got: 1, Want: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, peer := pipeMesh(t, mapreduce.NewBufferPool(), 10*time.Second)
			go io.Copy(io.Discard, peer) // takes this worker's frames
			returned := make(chan struct{})
			go func() {
				if writeFrame(peer, tc.seqs[0], []byte("first")) != nil {
					return
				}
				if tc.wait {
					<-returned
				}
				writeFrame(peer, tc.seqs[1], []byte("second"))
			}()
			for x := range tc.want.Want {
				if in, err := m.AllToAll("x", [][]byte{nil, nil}); err != nil || string(in[1]) != "first" {
					t.Fatalf("exchange %d = %q, %v", x, in, err)
				}
				m.Recycle()
				close(returned)
			}
			_, err := m.AllToAll("x", [][]byte{nil, nil})
			var seqErr *FrameSequenceError
			if !errors.As(err, &seqErr) || *seqErr != tc.want {
				t.Fatalf("exchange %d after frames %v: err = %v, want %v", tc.want.Want, tc.seqs, err, &tc.want)
			}
		})
	}
}

// TestMeshExchangeTimesOutOnSilentPeer: a peer that neither reads nor
// writes holds an exchange no longer than its timeout, even with a frame
// to send it larger than anything on the way can buffer: AllToAll fails
// with the deadline's error, and once the mesh is closed none of its
// goroutines is left.
func TestMeshExchangeTimesOutOnSilentPeer(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	m, _ := pipeMesh(t, mapreduce.NewBufferPool(), 200*time.Millisecond)
	errc := make(chan error, 1)
	go func() {
		_, err := m.AllToAll("x", [][]byte{nil, make([]byte, 1<<20)})
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("AllToAll to a silent peer: err = %v, want the deadline's", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AllToAll to a silent peer was still blocked after 5 s")
	}
	m.close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the mesh closed, %d before it was made", runtime.NumGoroutine(), goroutines)
		}
	}
}

// FuzzMeshFrame: readFrame over any bytes returns an error or a frame
// that writeFrame encodes back to exactly the bytes it consumed, and it
// allocates no more than twice what it was given plus one
// dfs.DeclaredChunk, whatever the header claims. Each payload read goes back to the pool,
// so the second and third reads of the same bytes take a pooled frame;
// and a header claiming more bytes than arrive fails with
// io.ErrUnexpectedEOF, its pooled frame (the pool is handed one that
// large first) back in the pool.
func FuzzMeshFrame(f *testing.F) {
	frame := func(seq uint64, payload []byte) []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, seq, payload); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add(frame(0, nil))
	f.Add(frame(7, []byte("payload")))
	f.Add(append(frame(1, []byte{1, 2, 3}), frame(2, bytes.Repeat([]byte{9}, 300))...))
	f.Add(frame(1<<63, bytes.Repeat([]byte{0xff}, 64)))
	f.Add(frame(5, []byte("truncated"))[:frameHeaderBytes+4])
	f.Add(frame(3, make([]byte, lentFrameMin)))
	f.Add(frame(4, make([]byte, lentFrameMin+5))[:frameHeaderBytes+lentFrameMin])
	f.Add([]byte{1, 2, 3})
	f.Add(binary.LittleEndian.AppendUint32(make([]byte, 8), maxFrameBytes-1))
	f.Add(binary.LittleEndian.AppendUint32(make([]byte, 8), maxFrameBytes+1))
	f.Add(binary.LittleEndian.AppendUint32(make([]byte, 8), 3<<20))
	f.Fuzz(func(t *testing.T, data []byte) {
		pool := mapreduce.NewBufferPool()
		// A header short of its payload, of a size the mesh reads into a
		// pooled frame: hand the pool one, which the failed read must
		// return.
		truncated := len(data) >= frameHeaderBytes && uint64(binary.LittleEndian.Uint32(data[8:])) > uint64(len(data)-frameHeaderBytes)
		declared := 0
		if len(data) >= frameHeaderBytes {
			declared = int(binary.LittleEndian.Uint32(data[8:]))
		}
		if truncated && declared >= lentFrameMin && declared <= 4<<20 {
			pool.PutFrame(make([]byte, declared))
		}
		held := pool.Retained()

		// The fuzzing engine allocates beside the target now and then, so
		// the least of three identical reads is what readFrame costs; the
		// slack covers the reader and the error values.
		grew := uint64(math.MaxUint64)
		for i := range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			seq, payload, err := readFrame(bytes.NewReader(data), pool)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
			if truncated && declared <= maxFrameBytes && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("a header declaring %d bytes over %d: err = %v, want unexpected EOF", declared, len(data)-frameHeaderBytes, err)
			}
			if truncated && pool.Retained() != held {
				t.Fatalf("read %d of a truncated frame: the pool holds %d bytes, held %d before", i, pool.Retained(), held)
			}
			if err != nil {
				continue
			}
			var again bytes.Buffer
			if err := writeFrame(&again, seq, payload); err != nil {
				t.Fatalf("re-encoding frame %d: %v", seq, err)
			}
			if !bytes.Equal(again.Bytes(), data[:again.Len()]) {
				t.Fatalf("frame %d (%d bytes) re-encodes differently from the bytes it came from", seq, len(payload))
			}
			recycleFrame(pool, payload)
		}
		if bound := uint64(2*len(data) + dfs.DeclaredChunk + 4096); grew > bound {
			t.Fatalf("readFrame over %d bytes allocated %d, bound %d", len(data), grew, bound)
		}
	})
}

// meshPair connects two one-peer meshes over an in-memory pipe; both
// read their peers' frames into pool.
func meshPair(t *testing.T, pool *mapreduce.BufferPool) (a, b *mesh) {
	t.Helper()
	ca, cb := net.Pipe()
	a = &mesh{self: 0, conns: []net.Conn{nil, ca}, timeout: 10 * time.Second, pool: pool}
	b = &mesh{self: 1, conns: []net.Conn{cb, nil}, timeout: 10 * time.Second, pool: pool}
	t.Cleanup(func() { a.close(); b.close() })
	return a, b
}

// TestMeshPayloadOutlivesPeersNextFrame: a payload read into a frame the
// pool lent stays intact until the engine recycles it, and the peer's
// next frame, which the peer is already sending, is not read before
// this worker's next exchange: the pool keeps the frame it would be read
// into — at the smallest size the mesh lends a frame for and at 2 MiB.
func TestMeshPayloadOutlivesPeersNextFrame(t *testing.T) {
	for _, n := range []int{lentFrameMin + 1000, 2 << 20} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			pool := mapreduce.NewBufferPool()
			lent := map[*byte]bool{}
			for range 2 {
				f := make([]byte, n)
				lent[unsafe.SliceData(f)] = true
				pool.PutFrame(f)
			}
			a, b := meshPair(t, pool)
			first, second := bytes.Repeat([]byte{0xaa}, n), bytes.Repeat([]byte{0xbb}, n)
			sending := make(chan struct{}) // the peer has entered its second exchange
			done := make(chan error, 1)
			go func() {
				for i, p := range [][]byte{first, second} {
					if i == 1 {
						close(sending)
					}
					if _, err := b.AllToAll("x", [][]byte{p, nil}); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			in, err := a.AllToAll("x", [][]byte{nil, nil})
			if err != nil {
				t.Fatal(err)
			}
			got := in[1]
			if !lent[unsafe.SliceData(got)] {
				t.Fatalf("a %d-byte payload sits in a frame the pool did not lend", n)
			}
			<-sending
			time.Sleep(50 * time.Millisecond) // time enough for a reader, were there one
			if held := pool.Retained(); held != int64(n) {
				t.Fatalf("the pool holds %d bytes before the next exchange, want its one %d-byte frame", held, n)
			}
			if !bytes.Equal(got, first) {
				t.Fatal("the first payload changed while the peer sent its second")
			}
			a.Recycle()
			if in, err = a.AllToAll("x", [][]byte{nil, nil}); err != nil {
				t.Fatal(err)
			}
			if !lent[unsafe.SliceData(in[1])] {
				t.Fatalf("the peer's second %d-byte frame sits in a frame the pool did not lend", n)
			}
			if !bytes.Equal(in[1], second) {
				t.Fatal("the second payload arrived changed")
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMeshRecyclesFrameChunks: payloads of lentFrameMin bytes or more go
// back to the pool when the engine recycles them, as it does after each
// exchange, so a warm mesh reads them into the same frames instead of
// allocating each one — at 300 KiB and at 2 MiB.
func TestMeshRecyclesFrameChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	for _, n := range []int{300 << 10, 2 << 20} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			a, b := meshPair(t, mapreduce.NewBufferPool())
			const rounds = 10
			pa, pb := bytes.Repeat([]byte{1}, n), bytes.Repeat([]byte{2}, n)
			exchange := func(k int) {
				done := make(chan error, 1)
				go func() {
					for range k {
						in, err := b.AllToAll("x", [][]byte{pb, nil})
						if err == nil && !bytes.Equal(in[0], pa) {
							err = errors.New("payload arrived changed")
						}
						b.Recycle()
						if err != nil {
							done <- err
							return
						}
					}
					done <- nil
				}()
				for range k {
					in, err := a.AllToAll("x", [][]byte{nil, pa})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(in[1], pb) {
						t.Fatal("payload arrived changed")
					}
					a.Recycle()
				}
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			exchange(2) // warm: the frames
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			exchange(rounds)
			runtime.ReadMemStats(&after)
			// Unrecycled, the rounds read 2 × rounds × n bytes — 6 and
			// 42 MB — into fresh buffers.
			grew := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d exchanges of %d-byte payloads each way allocated %d B", rounds, n, grew)
			if bound := uint64(4 * dfs.DeclaredChunk); grew > bound {
				t.Errorf("%d exchanges of %d-byte payloads each way allocated %d B, bound %d", rounds, n, grew, bound)
			}
		})
	}
}

// tcpMeshes dials a w-worker mesh over loopback TCP, each worker with a
// data listener, registry and pool of its own, as StartWorker sets them
// up.
func tcpMeshes(tb testing.TB, w int, timeout time.Duration) []*mesh {
	tb.Helper()
	roster := make([]string, w)
	regs := make([]*meshRegistry, w)
	for i := range w {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { ln.Close() })
		regs[i] = newMeshRegistry()
		roster[i] = ln.Addr().String()
		go serveData(ln, regs[i])
	}
	meshes := make([]*mesh, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i := range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			meshes[i], errs[i] = dialMesh(i, roster, "s", 0, regs[i], mapreduce.NewBufferPool(), timeout)
		}()
	}
	wg.Wait()
	tb.Cleanup(func() {
		for _, m := range meshes {
			if m != nil {
				m.close()
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return meshes
}

// BenchmarkMeshAllToAll times one exchange between two workers over
// loopback TCP, one payload each way, at 256 KiB and at 4 MiB. B/op
// counts both workers' allocations.
func BenchmarkMeshAllToAll(b *testing.B) {
	for _, n := range []int{256 << 10, 4 << 20} {
		b.Run(fmt.Sprintf("%dKiB", n>>10), func(b *testing.B) {
			ms := tcpMeshes(b, 2, 10*time.Second)
			pa, pb := bytes.Repeat([]byte{1}, n), bytes.Repeat([]byte{2}, n)
			b.SetBytes(int64(2 * n))
			b.ReportAllocs()
			b.ResetTimer()
			done := make(chan error, 1)
			go func() {
				for range b.N {
					_, err := ms[1].AllToAll("x", [][]byte{pb, nil})
					ms[1].Recycle()
					if err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			for range b.N {
				if _, err := ms[0].AllToAll("x", [][]byte{nil, pa}); err != nil {
					b.Fatal(err)
				}
				ms[0].Recycle()
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// fillPayload fills b with what worker from sends worker to in an
// exchange: words that name all three and their own position.
func fillPayload(b []byte, from, to, exchange int) {
	key := uint32(from<<28 | to<<24 | exchange<<20)
	for i := 0; i+4 <= len(b); i += 4 {
		binary.LittleEndian.PutUint32(b[i:], key^uint32(i/4))
	}
}

// TestMeshThreeWorkersOneLagging: three workers over loopback TCP swap
// 4 MiB payloads, more than the socket buffers hold, in 6 exchanges,
// one of them delayed before each. The other two run into their sends
// to it and wait there, and every payload arrives intact.
func TestMeshThreeWorkersOneLagging(t *testing.T) {
	const workers, exchanges, n, lagging = 3, 6, 4 << 20, 2
	ms := tcpMeshes(t, workers, 10*time.Second)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for self, m := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([][]byte, workers)
			for to := range out {
				if to != self {
					out[to] = make([]byte, n)
				}
			}
			want := make([]byte, n)
			for x := range exchanges {
				for to, b := range out {
					if b != nil {
						fillPayload(b, self, to, x)
					}
				}
				if self == lagging {
					time.Sleep(30 * time.Millisecond)
				}
				in, err := m.AllToAll(fmt.Sprint("exchange ", x), out)
				if err != nil {
					errs[self] = err
					return
				}
				for from, p := range in {
					if from == self {
						continue
					}
					fillPayload(want, from, self, x)
					if !bytes.Equal(p, want) {
						errs[self] = fmt.Errorf("worker %d, exchange %d: the %d-byte payload from worker %d arrived changed", self, x, len(p), from)
						return
					}
				}
				m.Recycle()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}
