package dfs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// snapshotMagic heads every serialised FS image so a stray file is
// rejected with a clear error instead of garbage decoding.
const snapshotMagic = "mwsdfs1\n"

// WriteSnapshot serialises the file system's contents — names and
// records, not counters — to w. Snapshots exist so a killed job chain
// can hand its checkpoints to a later process (mwsjoin -checkpoint /
// -resume); they are host I/O, not simulated DFS traffic, so nothing
// is charged to the Stats counters.
//
// Format: magic, uvarint file count, then per file (lexical name
// order) a uvarint-length-prefixed name, a uvarint record count, and
// each record uvarint-length-prefixed. Every varint is in its shortest
// form, and a file's records are all of one length, its stride.
func (fs *FS) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	names := fs.List()
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		fs.mu.RLock()
		f := fs.files[name]
		fs.mu.RUnlock()
		if err := putUvarint(uint64(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
		if err := putUvarint(uint64(f.count())); err != nil {
			return err
		}
		if err := f.forEachRange(0, f.count(), func(rec []byte) error {
			if err := putUvarint(uint64(len(rec))); err != nil {
				return err
			}
			_, err := bw.Write(rec)
			return err
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// snapshotChunk is the most ReadSnapshot allocates ahead of the bytes
// that have arrived: every length in a snapshot is a claim by whoever
// wrote the file, so nothing is sized from one beyond this.
const snapshotChunk = 64 << 10

// readSized reads n declared bytes. Up to snapshotChunk it is one exact
// allocation; beyond, chunks are collected as they arrive and joined
// only once all n bytes have, so a length that lies costs at most one
// chunk more than the file really holds.
func readSized(r io.Reader, n uint64) ([]byte, error) {
	if n <= snapshotChunk {
		buf := make([]byte, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	var chunks [][]byte
	for got := uint64(0); got < n; {
		c := make([]byte, min(n-got, snapshotChunk))
		if _, err := io.ReadFull(r, c); err != nil {
			return nil, err
		}
		chunks = append(chunks, c)
		got += uint64(len(c))
	}
	return slices.Concat(chunks...), nil
}

// truncated names what a snapshot that ends mid-structure is: past the
// magic, running out of bytes is never a clean end of file.
func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readUvarint reads one varint in the shortest form, the only form
// WriteSnapshot writes, so an image that loads re-serialises to its own
// bytes.
func readUvarint(r io.ByteReader) (uint64, error) {
	var v uint64
	for i := 0; ; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			return 0, errors.New("varint overflows 64 bits")
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			if b == 0 && i > 0 {
				return 0, errors.New("varint not in its shortest form")
			}
			return v, nil
		}
	}
}

// SnapshotFileError reports a file a snapshot image holds but no file
// system can: a name repeated or out of lexical order, an empty record,
// or records of different lengths.
type SnapshotFileError struct {
	File   string
	Reason string
}

func (e *SnapshotFileError) Error() string {
	return fmt.Sprintf("dfs: snapshot file %q: %s", e.File, e.Reason)
}

// ReadSnapshot reconstructs a file system from a WriteSnapshot image,
// each file at the stride of its first record. Counters start at zero —
// the snapshot restores state, and only the resumed run's own I/O
// should be charged to it. The image is input from outside the
// process: a truncated or lying one is an error wrapping
// io.ErrUnexpectedEOF, a file no WriteSnapshot can have written is a
// *SnapshotFileError, and memory is allocated only for bytes that
// arrived. An image that loads is the one WriteSnapshot writes of it,
// byte for byte.
func ReadSnapshot(r io.Reader, blockSize int64) (*FS, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dfs: reading snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("dfs: not a dfs snapshot (bad magic %q)", magic)
	}
	fs := New(blockSize)
	nFiles, err := readUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("dfs: reading snapshot file count: %w", truncated(err))
	}
	prev := ""
	for i := uint64(0); i < nFiles; i++ {
		nameLen, err := readUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("dfs: snapshot file %d of %d: %w", i, nFiles, truncated(err))
		}
		nameBuf, err := readSized(br, nameLen)
		if err != nil {
			return nil, fmt.Errorf("dfs: snapshot file %d of %d: %d-byte name: %w", i, nFiles, nameLen, truncated(err))
		}
		name := string(nameBuf)
		switch {
		case i > 0 && name == prev:
			return nil, &SnapshotFileError{File: name, Reason: "name repeated"}
		case i > 0 && name < prev:
			return nil, &SnapshotFileError{File: name, Reason: fmt.Sprintf("name out of lexical order, after %q", prev)}
		}
		prev = name
		f, err := readFile(br, name)
		if err != nil {
			return nil, err
		}
		fs.files[name] = f
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			err = errors.New("bytes after the last file")
		}
		return nil, fmt.Errorf("dfs: snapshot: %w", err)
	}
	return fs, nil
}

// readFile reads the named file's record count and records into one
// segment. An empty file has stride 1: with no records its stride reads
// as nothing.
func readFile(br *bufio.Reader, name string) (*file, error) {
	nRecs, err := readUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("dfs: snapshot %q record count: %w", name, truncated(err))
	}
	f := &file{stride: 1}
	var seg []byte
	for j := uint64(0); j < nRecs; j++ {
		recLen, err := readUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("dfs: snapshot %q record %d of %d: %w", name, j, nRecs, truncated(err))
		}
		switch {
		case j == 0 && recLen == 0:
			return nil, &SnapshotFileError{File: name, Reason: "record 0 is empty"}
		case j == 0:
			seg, err = readSized(br, recLen)
			f.stride = len(seg)
		case recLen != uint64(f.stride):
			return nil, &SnapshotFileError{File: name, Reason: fmt.Sprintf("record %d holds %d bytes, record 0 %d", j, recLen, f.stride)}
		default:
			seg = slices.Grow(seg, f.stride)
			_, err = io.ReadFull(br, seg[len(seg):len(seg)+f.stride])
			seg = seg[:len(seg)+f.stride]
		}
		if err != nil {
			return nil, fmt.Errorf("dfs: snapshot %q record %d of %d: %d bytes declared: %w", name, j, nRecs, recLen, truncated(err))
		}
	}
	if len(seg) > 0 {
		f.segs, f.bytes = [][]byte{seg}, int64(len(seg))
	}
	return f, nil
}
