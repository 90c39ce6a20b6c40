package dfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// snapshotFile is one file of a snapshot image built by hand.
type snapshotFile struct {
	name    string
	records [][]byte
}

// snapshotImage builds the image WriteSnapshot documents: magic, file
// count, then per file its length-prefixed name, record count and
// length-prefixed records, every varint in its shortest form.
func snapshotImage(files ...snapshotFile) []byte {
	img := binary.AppendUvarint([]byte(snapshotMagic), uint64(len(files)))
	for _, f := range files {
		img = binary.AppendUvarint(img, uint64(len(f.name)))
		img = append(img, f.name...)
		img = binary.AppendUvarint(img, uint64(len(f.records)))
		for _, rec := range f.records {
			img = binary.AppendUvarint(img, uint64(len(rec)))
			img = append(img, rec...)
		}
	}
	return img
}

// TestSnapshotRoundTrip: a snapshot is the documented image of the
// files' records, costs the DFS nothing, and restores each file at the
// stride it was written at.
func TestSnapshotRoundTrip(t *testing.T) {
	fs := New(64)
	writeRecords(t, fs, "a/one", []byte("hello"), []byte("world"))
	writeRecords(t, fs, "b/two", []byte{0, 1, 2, 255})
	writeRecords(t, fs, "empty")
	w := fs.CreateMBB("rel")
	for _, m := range testMBBs(3) {
		w.Append(m)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	before := fs.Stats()
	if err := fs.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Snapshot I/O is host I/O, not simulated DFS traffic: uncharged.
	if fs.Stats() != before {
		t.Errorf("WriteSnapshot charged the DFS counters: %+v -> %+v", before, fs.Stats())
	}
	rows := mbbRecords(testMBBs(3))
	want := snapshotImage(
		snapshotFile{"a/one", [][]byte{[]byte("hello"), []byte("world")}},
		snapshotFile{"b/two", [][]byte{{0, 1, 2, 255}}},
		snapshotFile{"empty", nil},
		snapshotFile{"rel", [][]byte{rows[:MBBRecordBytes], rows[MBBRecordBytes : 2*MBBRecordBytes], rows[2*MBBRecordBytes:]}},
	)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("snapshot\n%x\nwant\n%x", buf.Bytes(), want)
	}

	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.List(), fs.List()) {
		t.Errorf("file list = %v, want %v", got.List(), fs.List())
	}
	if want, have := snapshotFiles(t, fs), snapshotFiles(t, got); !reflect.DeepEqual(have, want) {
		t.Errorf("records differ after round trip:\n got %v\nwant %v", have, want)
	}
	for name, stride := range map[string]int{"a/one": 5, "b/two": 4, "rel": MBBRecordBytes} {
		if f := got.files[name]; f.stride != stride {
			t.Errorf("%s restored at stride %d, want %d", name, f.stride, stride)
		}
	}
	// The restored FS starts with fresh counters apart from the scans
	// just charged — byte/record reads only, nothing written.
	st := got.Stats()
	if st.BytesWritten != 0 || st.RecordsWritten != 0 || st.FilesCreated != 0 {
		t.Errorf("restored FS carries write counters: %+v", st)
	}
}

// TestReadSnapshotRejectsMalformedFiles: an image WriteSnapshot cannot
// have written fails to load — a file named twice or out of order, or
// whose records are empty or of different lengths, with a
// *SnapshotFileError naming the file, and any other image that would
// not re-serialise to its own bytes with an error.
func TestReadSnapshotRejectsMalformedFiles(t *testing.T) {
	for name, c := range map[string]struct {
		img  []byte
		file string
	}{
		"repeated name": {repeatedNameSnapshot(), "chk/x"},
		"out of order":  {snapshotImage(snapshotFile{"b", nil}, snapshotFile{"a", nil}), "a"},
		"mixed lengths": {mixedLengthSnapshot(), "f"},
		"empty record":  {emptyRecordSnapshot(), "f"},
		"long varint":   {append([]byte(snapshotMagic), 0x80, 0x00), ""},
		"trailing byte": {append(snapshotImage(snapshotFile{"a", nil}), 0), ""},
	} {
		_, err := ReadSnapshot(bytes.NewReader(c.img), 64)
		var fe *SnapshotFileError
		switch {
		case err == nil:
			t.Errorf("%s: image loaded", name)
		case c.file != "" && (!errors.As(err, &fe) || fe.File != c.file):
			t.Errorf("%s: err = %v, want a *SnapshotFileError naming %q", name, err, c.file)
		}
	}
}

// repeatedNameSnapshot names one file twice, the later one a valid
// file that would otherwise replace the earlier.
func repeatedNameSnapshot() []byte {
	return snapshotImage(snapshotFile{"chk/x", [][]byte{{1}}}, snapshotFile{"chk/x", [][]byte{{2}}})
}

// mixedLengthSnapshot holds one file of records of two lengths.
func mixedLengthSnapshot() []byte {
	return snapshotImage(snapshotFile{"f", [][]byte{[]byte("ab"), []byte("abc")}})
}

// emptyRecordSnapshot holds one file whose only record has no bytes.
func emptyRecordSnapshot() []byte {
	return snapshotImage(snapshotFile{"f", [][]byte{{}}})
}

func TestReadSnapshotBadMagic(t *testing.T) {
	_, err := ReadSnapshot(strings.NewReader("not a snapshot"), 64)
	if err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("bad magic: err = %v", err)
	}
}

// hugeNameSnapshot is the 18-byte image whose one file claims a name of
// 2⁶² bytes: magic, file count 1, the name length, nothing after.
func hugeNameSnapshot() []byte {
	img := append([]byte(snapshotMagic), 1)
	return binary.AppendUvarint(img, 1<<62)
}

// sampleSnapshot is a well-formed image: two files, one of them empty.
func sampleSnapshot() []byte {
	return snapshotImage(snapshotFile{"a/one", [][]byte{[]byte("hello"), []byte("world")}}, snapshotFile{"empty", nil})
}

// TestReadSnapshotTruncated: a snapshot cut short anywhere past the
// magic is reported as truncation, whatever its lengths claim.
func TestReadSnapshotTruncated(t *testing.T) {
	whole := sampleSnapshot()
	images := [][]byte{hugeNameSnapshot()}
	for cut := len(snapshotMagic); cut < len(whole); cut++ {
		images = append(images, whole[:cut])
	}
	for _, img := range images {
		if _, err := ReadSnapshot(bytes.NewReader(img), 64); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%d-byte image: err = %v, want one wrapping io.ErrUnexpectedEOF", len(img), err)
		}
	}
}

// snapshotFiles lists a file system's names and records.
func snapshotFiles(t *testing.T, fs *FS) map[string][][]byte {
	t.Helper()
	files := make(map[string][][]byte)
	for _, name := range fs.List() {
		files[name] = [][]byte{}
		if err := fs.Scan(name, func(r []byte) error {
			files[name] = append(files[name], append([]byte{}, r...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// FuzzReadSnapshot: a snapshot is a file from outside the process, so
// any bytes either fail to load with an error or load into a file
// system whose snapshot is those very bytes — never a panic, and never
// more memory than the bytes present justify. A loaded file either
// fails to scan as MBB records or each of its records is the AppendMBB
// encoding of the row it decodes to.
func FuzzReadSnapshot(f *testing.F) {
	f.Add(sampleSnapshot())
	f.Add(hugeNameSnapshot())
	f.Add(markSnapshot(f, 1))
	f.Add(markSnapshot(f, 2))
	f.Add(repeatedNameSnapshot())
	f.Add(mixedLengthSnapshot())
	f.Add(emptyRecordSnapshot())
	f.Fuzz(func(t *testing.T, img []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadSnapshot(bytes.NewReader(img), 64)
		runtime.ReadMemStats(&after)
		// A record costs its bytes plus a slice header, a file a struct
		// and a map slot, each for at least one byte of input; the slack
		// absorbs the bufio buffer and the fuzz engine's own goroutines.
		if allocated, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(img)+DeclaredChunk+1<<20); allocated > limit {
			t.Fatalf("reading %d bytes allocated %d, limit %d", len(img), allocated, limit)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := got.WriteSnapshot(&again); err != nil {
			t.Fatalf("loaded snapshot does not re-serialise: %v", err)
		}
		if !bytes.Equal(again.Bytes(), img) {
			t.Fatalf("loaded image\n%x\nre-serialises as\n%x", img, again.Bytes())
		}
		files := snapshotFiles(t, got)
		for name, recs := range files {
			var rows []MBB
			if got.ScanMBB(name, func(m MBB) error { rows = append(rows, m); return nil }) != nil {
				continue
			}
			for i, m := range rows {
				if enc := AppendMBB(nil, m); !bytes.Equal(enc, recs[i]) {
					t.Fatalf("%s record %d decodes to %+v, which encodes to %x, not %x", name, i, m, enc, recs[i])
				}
			}
		}
	})
}
