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
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/spatial"
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
	protocolVersion = 10

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

// bulk returns the message's bulk fields in wire order, one attachment
// each: a ship's relations, one per digest it names, and a result's
// tuple slab (when it has tuples). The writer sends what they hold; the
// reader fills them.
func (m *message) bulk() []*[]byte {
	switch m.Type {
	case msgShip:
		if len(m.Rels) != len(m.Digests) {
			m.Rels = make([][]byte, len(m.Digests))
		}
		fields := make([]*[]byte, len(m.Rels))
		for i := range m.Rels {
			fields[i] = &m.Rels[i]
		}
		return fields
	case msgResult:
		if m.Count > 0 {
			return []*[]byte{&m.Slab}
		}
	}
	return nil
}

// writeMessage writes one message — header line, then attachments — and
// returns the bytes it put on the wire. Callers serialize writers of one
// connection. The attachments are written from the message's own
// slices, without a copy.
func writeMessage(w io.Writer, m *message) (int64, error) {
	fields := m.bulk()
	hdr := wireHeader{message: m}
	bufs := make(net.Buffers, 1, 1+len(fields))
	for _, f := range fields {
		if err := checkFrameLen(int64(len(*f))); err != nil {
			return 0, err
		}
		hdr.Att = append(hdr.Att, int64(len(*f)))
		if len(*f) > 0 {
			bufs = append(bufs, *f)
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
	return bufs.WriteTo(w)
}

// readMessage reads one message. Every length it takes from the wire is
// checked before it sizes an allocation: the header line against
// maxHeaderBytes, the attachment count against what the message's type
// and header fields call for, each attachment against maxFrameBytes and
// then read in dfs.DeclaredChunk steps.
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
	if len(hdr.Att) != len(fields) {
		return nil, fmt.Errorf("cluster: %s message declares %d attachments, want %d", m.Type, len(hdr.Att), len(fields))
	}
	for i, n := range hdr.Att {
		if n < 0 {
			return nil, fmt.Errorf("cluster: %s message declares a %d-byte attachment", m.Type, n)
		}
		if err := checkFrameLen(n); err != nil {
			return nil, err
		}
		if *fields[i], err = dfs.ReadDeclared(br, int(n), int(n)); err != nil {
			return nil, fmt.Errorf("cluster: %s attachment: %w", m.Type, err)
		}
		m.wireBytes += n
	}
	if m.Type == msgResult {
		if err := checkSlab(m.Arity, m.Count, len(m.Slab)); err != nil {
			return nil, err
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

// packTuples renders a result's rows as the attachment they travel in:
// the slab's IDs, flat little-endian int32, in a frame from pool that
// the caller puts back once it is sent. An empty result packs to arity
// 0 and no slab.
func packTuples(pool *mapreduce.BufferPool, rows spatial.Rows) (arity int, slab []byte) {
	if rows.Len() == 0 {
		return 0, nil
	}
	n := 4 * len(rows.IDs)
	if slab = pool.GetFrame(n); slab == nil {
		slab = make([]byte, n, mapreduce.FrameCap(n))
	}
	slab = slab[:n]
	for i, id := range rows.IDs {
		binary.LittleEndian.PutUint32(slab[4*i:], uint32(id))
	}
	return rows.Arity, slab
}

// unpackTuples decodes a slab into one []int32 and carves the tuples
// from it (Rows.Tuples), the one carve a clustered result takes. The
// result is non-nil even when empty.
func unpackTuples(arity, count int, slab []byte) ([]spatial.Tuple, error) {
	if err := checkSlab(arity, count, len(slab)); err != nil {
		return nil, err
	}
	ids := make([]int32, arity*count)
	for i := range ids {
		ids[i] = int32(binary.LittleEndian.Uint32(slab[4*i:]))
	}
	return spatial.Rows{Arity: arity, IDs: ids}.Tuples(), nil
}
