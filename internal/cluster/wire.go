package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"

	"mwsjoin/internal/dfs"
)

// The control plane's one wire form: a JSON header line, then the
// message's bulk fields as binary attachments whose lengths the header
// declares. Small verbs (register, heartbeat, start, need, end) are a
// line and nothing else; ship and result carry their bytes as bytes.
// Both ends use writeMessage/readMessage and nothing else.

const (
	// protocolVersion is what register declares and the coordinator
	// requires; it changes whenever the framing below, the meaning of a
	// start or the payloads workers exchange over the mesh do, so a
	// stale worker binary fails at registration instead of mid-session —
	// or, ignoring a spec field it never heard of, answering a different
	// question.
	protocolVersion = 12

	// maxHeaderBytes caps the JSON header line. Every bulk field rides as
	// an attachment, so a header holds names, counters and the run's
	// Stats — kilobytes.
	maxHeaderBytes = 1 << 20

	// controlReadBuffer sizes the bufio.Reader of a control connection:
	// room for any ordinary header line; attachments larger than it are
	// read straight into their own buffers.
	controlReadBuffer = 64 << 10
)

// errHeaderTooLarge reports a header line beyond maxHeaderBytes, on
// either side of the wire.
var errHeaderTooLarge = fmt.Errorf("cluster: control header exceeds %d bytes", maxHeaderBytes)

// wireHeader is the header line: the message's JSON fields plus the
// byte length of each attachment that follows, in order.
type wireHeader struct {
	*message
	Att []int64 `json:"att,omitempty"`
}

// bulk returns a ship's relations in wire order, one attachment each,
// one per digest the ship names. The writer sends what they hold; the
// reader fills them. A result's one attachment, its ID slab, has a
// codec of its own (writeIDs, readIDs).
func (m *message) bulk() []*[]byte {
	if m.Type != msgShip {
		return nil
	}
	if len(m.Rels) != len(m.Digests) {
		m.Rels = make([][]byte, len(m.Digests))
	}
	fields := make([]*[]byte, len(m.Rels))
	for i := range m.Rels {
		fields[i] = &m.Rels[i]
	}
	return fields
}

// carriesSlab reports whether m is a result with tuples, whose IDs
// follow its header line as its one attachment.
func (m *message) carriesSlab() bool { return m.Type == msgResult && m.Count > 0 }

// writeMessage writes one message — header line, then attachments — and
// returns the bytes it put on the wire. Callers serialize writers of one
// connection. A ship's relations are written from their own slices, and
// a result's IDs are encoded as they are written (writeIDs): no
// attachment is copied whole.
func writeMessage(w io.Writer, m *message) (int64, error) {
	fields := m.bulk()
	hdr := wireHeader{message: m}
	bufs := make(net.Buffers, 1, 1+len(fields))
	for _, f := range fields {
		hdr.Att = append(hdr.Att, int64(len(*f)))
		if len(*f) > 0 {
			bufs = append(bufs, *f)
		}
	}
	if m.carriesSlab() {
		hdr.Att = append(hdr.Att, 4*int64(len(m.IDs)))
	}
	for _, n := range hdr.Att {
		if err := checkFrameLen(n); err != nil {
			return 0, err
		}
	}
	line, err := json.Marshal(hdr)
	if err != nil {
		return 0, fmt.Errorf("cluster: encode %s header: %w", m.Type, err)
	}
	if len(line) >= maxHeaderBytes {
		return 0, errHeaderTooLarge
	}
	bufs[0] = append(line, '\n')
	n, err := bufs.WriteTo(w)
	if err != nil || !m.carriesSlab() {
		return n, err
	}
	k, err := writeIDs(w, m.IDs)
	return n + k, err
}

// readMessage reads one message. Every length it takes from the wire is
// checked before it sizes an allocation: the header line against
// maxHeaderBytes, the attachment count against what the message's type
// and header fields call for, each attachment against maxFrameBytes and
// a result's against its count and arity (checkSlab), and then read in
// dfs.DeclaredChunk steps.
func readMessage(br *bufio.Reader) (*message, error) {
	line, err := readHeaderLine(br)
	if err != nil {
		return nil, err
	}
	m := new(message)
	hdr := wireHeader{message: m}
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("cluster: bad control header: %w", err)
	}
	m.wireBytes = int64(len(line)) + 1
	fields := m.bulk()
	want := len(fields)
	if m.carriesSlab() {
		want = 1
	}
	if len(hdr.Att) != want {
		return nil, fmt.Errorf("cluster: %s message declares %d attachments, want %d", m.Type, len(hdr.Att), want)
	}
	for _, n := range hdr.Att {
		if n < 0 {
			return nil, fmt.Errorf("cluster: %s message declares a %d-byte attachment", m.Type, n)
		}
		if err := checkFrameLen(n); err != nil {
			return nil, err
		}
		m.wireBytes += n
	}
	for i, f := range fields {
		if *f, err = dfs.ReadDeclared(br, int(hdr.Att[i]), int(hdr.Att[i])); err != nil {
			return nil, fmt.Errorf("cluster: %s attachment: %w", m.Type, err)
		}
	}
	if m.Type == msgResult {
		var slab int
		if m.carriesSlab() {
			slab = int(hdr.Att[0])
		}
		if err := checkSlab(m.Arity, m.Count, slab); err != nil {
			return nil, err
		}
		if m.IDs, err = readIDs(br, slab); err != nil {
			return nil, fmt.Errorf("cluster: %s attachment: %w", m.Type, err)
		}
	}
	return m, nil
}

// readHeaderLine returns the next line without its newline. The slice
// may alias br's buffer and is valid until the next read.
func readHeaderLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		if len(line)+len(frag) > maxHeaderBytes {
			return nil, errHeaderTooLarge
		}
		switch {
		case err == nil && line == nil:
			return frag[:len(frag)-1], nil
		case err == nil:
			line = append(line, frag...)
			return line[:len(line)-1], nil
		case errors.Is(err, bufio.ErrBufferFull):
			line = append(line, frag...)
		case errors.Is(err, io.EOF) && len(line)+len(frag) > 0:
			return nil, io.ErrUnexpectedEOF
		default:
			return nil, err
		}
	}
}

// checkSlab verifies that a result's header and tuple slab agree:
// count tuples of arity little-endian int32 ids each, nothing over.
// Divisions only, so no wire value can overflow the check, and count is
// bounded by the bytes that arrived before anything is sized from it.
func checkSlab(arity, count, slabBytes int) error {
	ids := slabBytes / 4
	ok := slabBytes == 0 && count == 0 && arity >= 0
	if count > 0 {
		ok = slabBytes%4 == 0 && arity > 0 && arity <= ids && ids%arity == 0 && ids/arity == count
	}
	if !ok {
		return fmt.Errorf("cluster: result declares %d tuples of arity %d but carries a %d-byte slab", count, arity, slabBytes)
	}
	return nil
}

// writeIDs writes a result's slab — its IDs, flat little-endian int32 —
// rendering them a recycled chunk at a time (dfs.WriteChunked), so no
// packed copy of the result is ever whole. It returns the bytes written.
func writeIDs(w io.Writer, ids []int32) (int64, error) {
	return dfs.WriteChunked(w, 4*len(ids), func(chunk []byte) {
		for i := range len(chunk) / 4 {
			binary.LittleEndian.PutUint32(chunk[4*i:], uint32(ids[i]))
		}
		ids = ids[len(chunk)/4:]
	})
}

// readIDs decodes a slab of n bytes, which checkSlab has matched to its
// header, straight into one []int32 of n/4 IDs: the bytes are collected
// in recycled chunks as they arrive (dfs.ReadDeclaredChunks), and the
// IDs are allocated only once all n have, so a slab that is cut short
// costs a chunk, not what its header declared. An empty slab is nil.
func readIDs(r io.Reader, n int) ([]int32, error) {
	var ids []int32
	err := dfs.ReadDeclaredChunks(r, n, func(chunk []byte) {
		if ids == nil {
			ids = make([]int32, 0, n/4)
		}
		for i := 0; i < len(chunk); i += 4 {
			ids = append(ids, int32(binary.LittleEndian.Uint32(chunk[i:])))
		}
	})
	if err != nil {
		return nil, err
	}
	return ids, nil
}
