package cluster

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestMeshFrameBound: a header declaring more than maxFrameBytes fails
// the connection before any payload buffer is allocated, the exchange
// waiting on that peer gets the structured error, and a payload over
// the bound is refused at send rather than truncated to 32 bits.
func TestMeshFrameBound(t *testing.T) {
	local, peer := net.Pipe()
	defer peer.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mc := newMeshConn(local)
	defer mc.close()

	var hdr [12]byte
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
}
