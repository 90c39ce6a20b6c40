package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/mapreduce"
)

// TestMeshFrameBound: a header declaring more than maxFrameBytes fails
// the connection before any payload buffer is allocated, the exchange
// waiting on that peer gets the structured error, and a payload over
// the bound is refused at send rather than truncated to 32 bits. A
// header just under the bound followed by nothing costs one
// dfs.DeclaredChunk, not the gigabyte it declares.
func TestMeshFrameBound(t *testing.T) {
	local, peer := net.Pipe()
	defer peer.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pool := mapreduce.NewBufferPool()
	mc := newMeshConn(local, pool)
	defer mc.close()

	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint64(hdr[:8], 0)
	binary.LittleEndian.PutUint32(hdr[8:], 1<<32-1) // 4 GiB - 1
	if _, err := peer.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	_, err := mc.await(0, 10*time.Second)
	runtime.ReadMemStats(&after)
	var tooLarge *FrameTooLargeError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("await after a 4 GiB header: err = %v, want a FrameTooLargeError", err)
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

// TestMeshDuplicateFrame: a second frame with a sequence number the
// peer already used — one still parked, or one an exchange already
// took — fails the connection with a DuplicateFrameError instead of
// replacing a payload or waiting forever to be taken.
func TestMeshDuplicateFrame(t *testing.T) {
	for _, tc := range []struct {
		name  string
		taken bool // the first frame is awaited before the second arrives
	}{{"parked", false}, {"taken", true}} {
		t.Run(tc.name, func(t *testing.T) {
			local, peer := net.Pipe()
			defer peer.Close()
			mc := newMeshConn(local, mapreduce.NewBufferPool())
			defer mc.close()
			if err := writeFrame(peer, 3, []byte("first")); err != nil {
				t.Fatal(err)
			}
			if tc.taken {
				if p, err := mc.await(3, 10*time.Second); err != nil || string(p) != "first" {
					t.Fatalf("await(3) = %q, %v", p, err)
				}
			}
			if err := writeFrame(peer, 3, []byte("second")); err != nil {
				t.Fatal(err)
			}
			_, err := mc.await(4, 10*time.Second)
			var dup *DuplicateFrameError
			if !errors.As(err, &dup) || dup.Seq != 3 {
				t.Fatalf("await after a repeated frame 3: err = %v, want a DuplicateFrameError for 3", err)
			}
		})
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
	a = &mesh{self: 0, conns: []*meshConn{nil, newMeshConn(ca, pool)}, timeout: 10 * time.Second, pool: pool}
	b = &mesh{self: 1, conns: []*meshConn{newMeshConn(cb, pool), nil}, timeout: 10 * time.Second, pool: pool}
	t.Cleanup(func() { a.close(); b.close() })
	return a, b
}

// TestMeshPayloadOutlivesPeersNextFrame: a payload read into a frame the
// pool lent stays intact until the engine recycles it, even when the
// peer's next frame has already arrived and been read into a pooled
// frame of its own — at the smallest size the mesh lends a frame for and
// at 2 MiB.
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
			done := make(chan error, 1)
			go func() {
				for _, p := range [][]byte{first, second} {
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
			mc := a.conns[1]
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				mc.mu.Lock()
				p, parked := mc.pending[1]
				mc.mu.Unlock()
				if parked {
					if !lent[unsafe.SliceData(p)] {
						t.Fatalf("the peer's second %d-byte frame sits in a frame the pool did not lend", n)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the peer's second frame never arrived")
				}
			}
			if !bytes.Equal(got, first) {
				t.Fatal("the first payload changed when the peer's second frame arrived")
			}
			a.Recycle()
			if in, err = a.AllToAll("x", [][]byte{nil, nil}); err != nil {
				t.Fatal(err)
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
