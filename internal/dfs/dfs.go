// Package dfs simulates the distributed file system underneath the
// map-reduce engine (§2 of the paper: "Input data is distributed across
// several physical locations on a distributed file system"). Files hold
// sequences of encoded records, split into fixed-size blocks, and every
// read and write is charged to byte/record/block counters.
//
// The point of the simulation is cost accounting, not durability: the
// paper's 2-way Cascade baseline loses precisely because each cascaded
// join writes a large intermediate result to HDFS and reads it back
// (§6.4). The counters exposed here make that cost measurable in the
// reproduction.
package dfs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultBlockSize mirrors the 64 MiB HDFS block size of the paper's
// Hadoop 0.20.2 era.
const DefaultBlockSize = 64 << 20

// Stats aggregates I/O counters for a file system. All fields count
// since creation.
type Stats struct {
	BytesWritten   int64
	BytesRead      int64
	RecordsWritten int64
	RecordsRead    int64
	BlocksWritten  int64
	BlocksRead     int64
	FilesCreated   int64
	FilesDeleted   int64
}

// FS is a simulated distributed file system. It is safe for concurrent
// use: mappers read input splits and reducers write output files in
// parallel.
type FS struct {
	blockSize int64

	mu    sync.RWMutex
	files map[string]*file

	bytesWritten   atomic.Int64
	bytesRead      atomic.Int64
	recordsWritten atomic.Int64
	recordsRead    atomic.Int64
	filesCreated   atomic.Int64
	filesDeleted   atomic.Int64
}

type file struct {
	records [][]byte
	bytes   int64
	// cols, when non-nil, makes this a columnar MBB file (see
	// columnar.go): rows live in structs-of-arrays planes and records
	// stays nil. A file's storage kind is fixed at creation.
	cols *mbbColumns
}

// count returns the number of records in the file.
func (f *file) count() int64 {
	if f.cols != nil {
		return int64(len(f.cols.ids))
	}
	return int64(len(f.records))
}

// forEachRange streams records [lo, hi) in the boxed wire format,
// synthesising columnar rows into a reused scratch buffer (callers
// must not retain the slice — the Scan contract). It returns the bytes
// delivered before fn's first error, mirroring Scan's
// charge-nothing-on-error behaviour.
func (f *file) forEachRange(lo, hi int64, fn func(record []byte) error) (int64, error) {
	var bytes int64
	if f.cols != nil {
		var scratch [MBBRecordBytes]byte
		for i := lo; i < hi; i++ {
			rec := AppendMBB(scratch[:0], f.cols.row(int(i)))
			bytes += MBBRecordBytes
			if err := fn(rec); err != nil {
				return bytes, err
			}
		}
		return bytes, nil
	}
	for _, rec := range f.records[lo:hi] {
		bytes += int64(len(rec))
		if err := fn(rec); err != nil {
			return bytes, err
		}
	}
	return bytes, nil
}

// chargeRead charges one whole read operation against the counters.
func (fs *FS) chargeRead(bytes, records int64) {
	fs.bytesRead.Add(bytes)
	fs.recordsRead.Add(records)
}

// New creates a file system with the given block size; sizes ≤ 0 fall
// back to DefaultBlockSize.
func New(blockSize int64) *FS {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &FS{blockSize: blockSize, files: make(map[string]*file)}
}

// Create makes (or truncates) the named file and returns a writer for
// it. The writer is not safe for concurrent use; create one writer per
// goroutine (e.g. one per reducer output partition).
func (fs *FS) Create(name string) *Writer {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, exists := fs.files[name]; !exists {
		fs.filesCreated.Add(1)
	}
	f := &file{}
	fs.files[name] = f
	return &Writer{fs: fs, f: f}
}

// Delete removes the named file; deleting a missing file is an error so
// that lifecycle bugs in job chains surface.
func (fs *FS) Delete(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("dfs: delete %q: no such file", name)
	}
	delete(fs.files, name)
	fs.filesDeleted.Add(1)
	return nil
}

// Exists reports whether the named file exists.
func (fs *FS) Exists(name string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[name]
	return ok
}

// List returns the names of all files in lexical order.
func (fs *FS) List() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Size returns the byte size and record count of the named file.
func (fs *FS) Size(name string) (bytes, records int64, err error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return 0, 0, fmt.Errorf("dfs: stat %q: no such file", name)
	}
	return f.bytes, f.count(), nil
}

// lookup finds the named file.
func (fs *FS) lookup(name string) (*file, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: open %q: no such file", name)
	}
	return f, nil
}

// Scan reads every record of the named file in order, charging the read
// counters, and invokes fn on each. The callback receives the stored
// byte slice (or, on a columnar file, a reused scratch rendering of the
// row); callers must not retain or mutate it.
func (fs *FS) Scan(name string, fn func(record []byte) error) error {
	f, err := fs.lookup(name)
	if err != nil {
		return err
	}
	n := f.count()
	bytes, err := f.forEachRange(0, n, fn)
	if err != nil {
		return err
	}
	fs.chargeRead(bytes, n)
	return nil
}

// View is a read-only handle on one file, the form a job's input takes
// when its map tasks read their own splits: Open charges the whole-file
// read once, exactly as Scan would, and the ranges handed out afterwards
// are free. Charging at the open rather than per range keeps every
// counter independent of how many mappers or retries touch a split.
// Files are immutable once written, so any number of goroutines may read
// ranges of one View concurrently.
type View struct {
	f *file
	n int
}

// Open charges one whole-file read of the named file and returns a View
// of its records.
func (fs *FS) Open(name string) (*View, error) {
	f, err := fs.lookup(name)
	if err != nil {
		return nil, err
	}
	n := f.count()
	fs.chargeRead(f.bytes, n)
	return &View{f: f, n: int(n)}, nil
}

// Len returns the number of records; a nil View is the empty input.
func (v *View) Len() int {
	if v == nil {
		return 0
	}
	return v.n
}

// Bytes returns the file's charged size.
func (v *View) Bytes() int64 {
	if v == nil {
		return 0
	}
	return v.f.bytes
}

// Records streams records [lo, hi) in the boxed wire format. As with
// Scan, fn must not retain or mutate the slice.
func (v *View) Records(lo, hi int, fn func(record []byte) error) error {
	if err := v.checkRange(lo, hi); err != nil || lo == hi {
		return err
	}
	_, err := v.f.forEachRange(int64(lo), int64(hi), fn)
	return err
}

func (v *View) checkRange(lo, hi int) error {
	if lo < 0 || hi < lo || hi > v.Len() {
		return fmt.Errorf("dfs: view range [%d,%d) out of bounds (0..%d)", lo, hi, v.Len())
	}
	return nil
}

// MBBs streams records [lo, hi) as decoded MBB rows: straight out of
// the planes of a columnar file, decoded from a boxed one.
func (v *View) MBBs(lo, hi int, fn func(MBB) error) error {
	if err := v.checkRange(lo, hi); err != nil || lo == hi {
		return err
	}
	_, err := v.f.forEachMBB(lo, hi, fn)
	return err
}

// Stats returns a snapshot of the I/O counters. Block counts are
// derived from byte counts at the configured block size (rounded up per
// whole-FS aggregate, mirroring how HDFS reports block traffic).
func (fs *FS) Stats() Stats {
	br := fs.bytesRead.Load()
	bw := fs.bytesWritten.Load()
	return Stats{
		BytesWritten:   bw,
		BytesRead:      br,
		RecordsWritten: fs.recordsWritten.Load(),
		RecordsRead:    fs.recordsRead.Load(),
		BlocksWritten:  (bw + fs.blockSize - 1) / fs.blockSize,
		BlocksRead:     (br + fs.blockSize - 1) / fs.blockSize,
		FilesCreated:   fs.filesCreated.Load(),
		FilesDeleted:   fs.filesDeleted.Load(),
	}
}

// Writer appends records to a file created with Create.
type Writer struct {
	fs      *FS
	f       *file
	pending [][]byte
	bytes   int64
	closed  bool
}

// Append adds one record. The bytes are copied, so the caller may reuse
// the buffer.
func (w *Writer) Append(record []byte) {
	if w.closed {
		panic("dfs: Append on closed writer")
	}
	cp := append([]byte(nil), record...)
	w.pending = append(w.pending, cp)
	w.bytes += int64(len(cp))
}

// AppendOwnedAll adds the records in order, taking ownership of every
// buffer and of the slice that holds them: no defensive copy is made,
// so the caller must not reuse or mutate them afterwards. It is for a
// step that built its records as views into a few large buffers. On a
// fresh writer the slice becomes the file's record table without a
// copy.
func (w *Writer) AppendOwnedAll(records [][]byte) {
	if w.closed {
		panic("dfs: AppendOwnedAll on closed writer")
	}
	for _, rec := range records {
		w.bytes += int64(len(rec))
	}
	if w.pending == nil {
		w.pending = records
	} else {
		w.pending = append(w.pending, records...)
	}
}

// Close publishes the appended records to the file and charges the
// write counters. A writer must be closed exactly once.
func (w *Writer) Close() error {
	if w.closed {
		return fmt.Errorf("dfs: writer closed twice")
	}
	w.closed = true
	w.fs.mu.Lock()
	if len(w.f.records) == 0 {
		w.f.records = w.pending
	} else {
		w.f.records = append(w.f.records, w.pending...)
	}
	w.f.bytes += w.bytes
	w.fs.mu.Unlock()
	w.fs.bytesWritten.Add(w.bytes)
	w.fs.recordsWritten.Add(int64(len(w.pending)))
	w.pending = nil
	return nil
}

// WriteFile is a convenience that creates the file and writes all the
// given records at once.
func (fs *FS) WriteFile(name string, records [][]byte) error {
	w := fs.Create(name)
	for _, r := range records {
		w.Append(r)
	}
	return w.Close()
}
