package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"mwsjoin/internal/geom"
)

// TestReadLineCap pins the longest line Read accepts, maxLine bytes
// before its '\n', with and without a trailing newline: the boundary
// of the bufio.Scanner loop Read replaced (1 MiB buffer, the line and
// its '\n' inside it), measured on that loop. A longer line fails with
// its line number.
func TestReadLineCap(t *testing.T) {
	for _, c := range []struct {
		n       int
		newline bool
		ok      bool
	}{
		{maxLine, true, true}, {maxLine, false, true},
		{maxLine + 1, true, false}, {maxLine + 1, false, false},
		{maxLine + 2, true, false},
	} {
		in := "1,2,3,4\n5,6,7,8" + strings.Repeat(" ", c.n-7)
		if c.newline {
			in += "\n"
		}
		path := filepath.Join(t.TempDir(), "cap.csv")
		if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile, fileErr := ReadFile(path)
		fromReader, readerErr := Read(strings.NewReader(in))
		for _, got := range []struct {
			rects []geom.Rect
			err   error
		}{{fromFile, fileErr}, {fromReader, readerErr}} {
			switch {
			case c.ok && (got.err != nil || len(got.rects) != 2):
				t.Errorf("line of %d bytes, newline %v: %d rectangles, %v; want 2", c.n, c.newline, len(got.rects), got.err)
			case !c.ok && (got.err == nil || got.err.Error() != "dataset: line 2: longer than 1048575 bytes"):
				t.Errorf("line of %d bytes, newline %v: %v; want the line-2 length error", c.n, c.newline, got.err)
			}
		}
	}
}

// TestReadCutsMatchReference reads inputs at every block size from one
// byte up, with shards of one line or more on up to four goroutines, so
// blocks and shards begin on every line of them (comments, blank and
// CRLF lines, a last line with no '\n', a bad line after good ones), and
// holds each read to referenceRead.
func TestReadCutsMatchReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, in := range []string{
		"# x,y,l,b\n1,2,3,4\n\n5.5,6,7,8\r\n# c\r\n\r\n 9 , 10 ,11,12 \n13,14,15,16",
		"1,2,3,4\n5,6,7,8\n9,10,11,12\n13,14,15,16\n1e3,2,3,4\n",
		"1,2,3,4\n5,6,7,8\n\n# c\n9,10,11\n13,14,15,16\n",
		"1,2,3,4\n5,6,7,8\n9,10,-11,12\n1,2,3,x\n",
		"\n\n\n\r\n",
		"0,0,0,0\n0,0,0,0\n0,0,0,0\n# c\n0,0,0,0\n\n0,0,0,0", // each line as short as a rectangle's can be
	} {
		want, wantErr := referenceRead(strings.NewReader(in))
		for block := 1; block <= len(in)+1; block++ {
			for _, minLines := range []int{1, 2, 3} {
				got, err := readShaped(strings.NewReader(in), block, minLines)
				sameRead(t, fmt.Sprintf("%q in blocks of %d, shards of %d lines", in, block, minLines), []byte(in), got, err, want, wantErr)
			}
		}
	}
}

// TestReadErrorOrder holds Read to the reference on readers that fail or
// deliver a byte at a time: the lines read before a read error are
// parsed, and an error among them comes before the read error.
func TestReadErrorOrder(t *testing.T) {
	broken := errors.New("disk on fire")
	for _, in := range []string{
		"1,2,3,4\n5,6,7,8\n",
		"1,2,3,4\n5,6,7",
		"1,2,3,4\n5,6,7,8",
		"1,2,x,4\n5,6,7,8\n",
		"",
	} {
		for name, r := range map[string]func() io.Reader{
			"failing":  func() io.Reader { return io.MultiReader(strings.NewReader(in), iotest.ErrReader(broken)) },
			"one byte": func() io.Reader { return iotest.OneByteReader(strings.NewReader(in)) },
			"data+err": func() io.Reader { return iotest.DataErrReader(strings.NewReader(in)) },
		} {
			want, wantErr := referenceRead(r())
			got, err := Read(r())
			sameRead(t, fmt.Sprintf("%s reader of %q", name, in), []byte(in), got, err, want, wantErr)
			got, err = readShaped(r(), 3, 1)
			sameRead(t, fmt.Sprintf("%s reader of %q in 3-byte blocks", name, in), []byte(in), got, err, want, wantErr)
		}
	}
}

// TestWriteMatchesFmt pins Write's bytes to the fmt formatting it
// replaced, fmtWrite.
func TestWriteMatchesFmt(t *testing.T) {
	rects, err := Synthetic(PaperDefaults(2000), 3)
	if err != nil {
		t.Fatal(err)
	}
	rects = append(rects, geom.Rect{X: -0.0, Y: 1e308, L: 5e-324, B: 0}, geom.Rect{X: math.NaN(), Y: math.Inf(-1), L: math.Inf(1), B: 1e21},
		geom.Rect{X: 123456789012345678, Y: -1.5e-7, L: 0.1, B: 100})
	for _, rs := range [][]geom.Rect{nil, rects} {
		var got, want bytes.Buffer
		if err := Write(&got, rs); err != nil {
			t.Fatal(err)
		}
		if err := fmtWrite(&want, rs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Write of %d rectangles differs from the fmt formatter", len(rs))
		}
	}
}

// fmtWrite is the Write Read's files were written by before Write
// appended its floats itself.
func fmtWrite(w io.Writer, rects []geom.Rect) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# x,y,l,b — start-point (top-left) and dimensions"); err != nil {
		return err
	}
	for _, r := range rects {
		if _, err := fmt.Fprintf(bw, "%s,%s,%s,%s\n",
			formatFloat(r.X), formatFloat(r.Y), formatFloat(r.L), formatFloat(r.B)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// benchmarkRelation writes the benchmark's uniform relation shape,
// 50,000 rectangles, and returns its path.
func benchmarkRelation(tb testing.TB) string {
	rects, err := Synthetic(PaperDefaults(50_000), 2013+101)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "rel.csv")
	if err := WriteFile(path, rects); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestReadAllocation holds a 50,000-line ReadFile to its output and one
// block buffer, in a handful of objects a block: no allocation a line.
// The line-at-a-time loader it replaced allocated 15.3 MB in 100,032
// objects for the same file.
func TestReadAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory allocates")
	}
	path := benchmarkRelation(t)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err != nil { // warm the goroutines the shards run on
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rects, err := ReadFile(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	blocks := (st.Size() + int64(readShape.block) - 1) / int64(readShape.block)
	out := uint64(cap(rects)) * 32
	t.Logf("%d lines, %d blocks: %d B in %d objects (output %d B for %d rectangles, block %d B)",
		len(rects)+1, blocks, bytes, objects, out, len(rects), readShape.block)
	if len(rects) != 50_000 {
		t.Fatalf("read %d rectangles, want 50,000", len(rects))
	}
	if cap(rects) > len(rects)+len(rects)/8 {
		t.Errorf("output capacity %d for %d rectangles: the file's size should have sized it", cap(rects), len(rects))
	}
	if limit := out + uint64(readShape.block) + 64<<10; bytes > limit {
		t.Errorf("ReadFile allocated %d B, want at most the output and one block, %d B", bytes, limit)
	}
	if limit := uint64(8*blocks + 16); objects > limit {
		t.Errorf("ReadFile allocated %d objects, want at most %d for %d blocks", objects, limit, blocks)
	}
}

// TestReadMemoryFollowsRectangles holds ReadFile of 6 MiB of blank and
// comment lines to one block and the output room of one block: the
// output is sized by the rectangles a block's bytes could hold (a line
// of 8 bytes, three commas), not by its lines.
func TestReadMemoryFollowsRectangles(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory allocates")
	}
	path := filepath.Join(t.TempDir(), "blank.csv")
	if err := os.WriteFile(path, bytes.Repeat([]byte("\n#\n\n \n"), 1<<20), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rects, err := ReadFile(path)
	runtime.ReadMemStats(&after)
	if err != nil || len(rects) != 0 {
		t.Fatalf("read %d rectangles, %v; want none", len(rects), err)
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(readShape.block)/8*32+uint64(readShape.block)+64<<10
	t.Logf("6 MiB of blank and comment lines: %d B allocated", got)
	if got > limit {
		t.Errorf("ReadFile of 6 MiB of blank and comment lines allocated %d B, want at most %d", got, limit)
	}
}

// TestSmallFileReadsInItsOwnSize holds ReadFile of a 1 KiB relation
// under 64 KiB: its block is the file's size and the byte that finds its
// end, not a whole 1 MiB block.
func TestSmallFileReadsInItsOwnSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory allocates")
	}
	var csv []byte
	for i := 0; len(csv) < 1<<10-32; i++ {
		csv = fmt.Appendf(csv, "%d,%d,3,4\n", i, 2*i)
	}
	path := filepath.Join(t.TempDir(), "small.csv")
	if err := os.WriteFile(path, csv, 0o644); err != nil {
		t.Fatal(err)
	}
	want := bytes.Count(csv, []byte{'\n'})
	if _, err := ReadFile(path); err != nil { // warm the goroutines the shards run on
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rects, err := ReadFile(path)
	runtime.ReadMemStats(&after)
	if err != nil || len(rects) != want {
		t.Fatalf("read %d rectangles, %v; want %d", len(rects), err, want)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a %d-byte file of %d rectangles: %d B allocated", len(csv), want, got)
	if got >= 64<<10 {
		t.Errorf("ReadFile of a %d-byte file allocated %d B, want under 64 KiB", len(csv), got)
	}
}

// BenchmarkReadFile loads one relation of the benchmark's uniform shape
// from its CSV, the engine-side twin of the benchmark's dataset.load_ms.
func BenchmarkReadFile(b *testing.B) {
	path := benchmarkRelation(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := ReadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
