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

func TestSnapshotRoundTrip(t *testing.T) {
	fs := New(64)
	if err := fs.WriteFile("a/one", [][]byte{[]byte("hello"), {}, []byte("world")}); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("b/two", [][]byte{{0, 1, 2, 255}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("empty", nil); err != nil {
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
	// The restored FS starts with fresh counters apart from the scans
	// just charged — byte/record reads only, nothing written.
	st := got.Stats()
	if st.BytesWritten != 0 || st.RecordsWritten != 0 || st.FilesCreated != 0 {
		t.Errorf("restored FS carries write counters: %+v", st)
	}
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

// sampleSnapshot is a well-formed image: two files, one of them empty,
// one record of zero length.
func sampleSnapshot(t testing.TB) []byte {
	t.Helper()
	fs := New(64)
	if err := fs.WriteFile("a/one", [][]byte{[]byte("hello"), {}, []byte("world")}); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("empty", nil); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := fs.WriteSnapshot(&img); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

// TestReadSnapshotTruncated: a snapshot cut short anywhere past the
// magic is reported as truncation, whatever its lengths claim.
func TestReadSnapshotTruncated(t *testing.T) {
	whole := sampleSnapshot(t)
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
// system that WriteSnapshot and ReadSnapshot carry over unchanged —
// never a panic, and never more memory than the bytes present justify.
// A loaded file either fails to scan as MBB records or each of its
// records is the AppendMBB encoding of the row it decodes to.
func FuzzReadSnapshot(f *testing.F) {
	f.Add(sampleSnapshot(f))
	f.Add(hugeNameSnapshot())
	f.Add(markSnapshot(f, 1))
	f.Add(markSnapshot(f, 2))
	f.Fuzz(func(t *testing.T, img []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadSnapshot(bytes.NewReader(img), 64)
		runtime.ReadMemStats(&after)
		// A record costs its bytes plus a slice header, a file a struct
		// and a map slot, each for at least one byte of input; the slack
		// absorbs the bufio buffer and the fuzz engine's own goroutines.
		if allocated, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(img)+snapshotChunk+1<<20); allocated > limit {
			t.Fatalf("reading %d bytes allocated %d, limit %d", len(img), allocated, limit)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := got.WriteSnapshot(&again); err != nil {
			t.Fatalf("loaded snapshot does not re-serialise: %v", err)
		}
		back, err := ReadSnapshot(&again, 64)
		if err != nil {
			t.Fatalf("re-serialised snapshot does not load: %v", err)
		}
		files := snapshotFiles(t, got)
		if have := snapshotFiles(t, back); !reflect.DeepEqual(have, files) {
			t.Fatalf("round trip changed the files:\n got %v\nwant %v", have, files)
		}
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
