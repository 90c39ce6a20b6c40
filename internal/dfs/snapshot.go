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
// each record uvarint-length-prefixed.
//
// Columnar MBB files are serialised as their boxed record images (the
// wire formats are byte-identical), so the snapshot format is
// independent of the storage kind; they restore as boxed files, which
// ScanMBB reads just as well.
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
		if _, err := f.forEachRange(0, f.count(), func(rec []byte) error {
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

// ReadSnapshot reconstructs a file system from a WriteSnapshot image.
// Counters start at zero — the snapshot restores state, and only the
// resumed run's own I/O should be charged to it. The image is input
// from outside the process: a truncated or lying one is an error
// wrapping io.ErrUnexpectedEOF, and memory is allocated only for bytes
// that arrived.
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
	nFiles, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("dfs: reading snapshot file count: %w", truncated(err))
	}
	for i := uint64(0); i < nFiles; i++ {
		nameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("dfs: snapshot file %d of %d: %w", i, nFiles, truncated(err))
		}
		nameBuf, err := readSized(br, nameLen)
		if err != nil {
			return nil, fmt.Errorf("dfs: snapshot file %d of %d: %d-byte name: %w", i, nFiles, nameLen, truncated(err))
		}
		name := string(nameBuf)
		nRecs, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("dfs: snapshot %q record count: %w", name, truncated(err))
		}
		f := &file{}
		for j := uint64(0); j < nRecs; j++ {
			recLen, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("dfs: snapshot %q record %d of %d: %w", name, j, nRecs, truncated(err))
			}
			rec, err := readSized(br, recLen)
			if err != nil {
				return nil, fmt.Errorf("dfs: snapshot %q record %d of %d: %d bytes declared: %w", name, j, nRecs, recLen, truncated(err))
			}
			f.records = append(f.records, rec)
			f.bytes += int64(len(rec))
		}
		fs.files[name] = f
	}
	return fs, nil
}
