package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"mwsjoin/internal/geom"
)

// FuzzReadRelationCSV holds the CSV loader to its promises on arbitrary
// bytes: Read never panics; it accepts and rejects what referenceRead,
// the line-at-a-time loader it replaced, does, with the same error text
// and the same rectangles bit for bit, at its own block size and at one
// shrunk so that a few hundred bytes span several blocks and shards;
// and whatever it accepts survives Write and a second Read unchanged.
func FuzzReadRelationCSV(f *testing.F) {
	for _, seed := range []string{
		"",
		"# x,y,l,b\n\n1,2,3,4\n",
		"  # indented comment\n\t\n0,10,5,5\r\n",
		"0,0,0,0\n-0,-0,0,0\n+0,+0,-0,-0\n",
		"1e308,1e308,1e308,1e308\n-1e308,1e-308,4.9e-324,0\n",
		"NaN,0,1,1\n",
		"Inf,0,1,1\n0,-Inf,1,1\n0,0,+Inf,1\n",
		"1,2,3\n",
		"1,2,3,4,5\n",
		"1, 2 ,3,4\n",
		"0x1p-2,1_0,3,4\n",
		"1,2,-3,4\n",
		"1,2,3,4\n" + strings.Repeat("9", 1<<20) + ",0,0,0\n",
		// Shard and block cuts on a comment, a blank and a CRLF line.
		strings.Repeat("1,2,3,4\n# cut here\n\n5,6,7,8\r\n\r\n# and here\r\n", 6),
		// No trailing newline, and a last line that is only a CR.
		"1,2,3,4\n5,6,7,8",
		"1,2,3,4\n\r",
		// An error in a later shard or block reports the file's line.
		strings.Repeat("1,2,3,4\n", 30) + "1,2,x,4\n" + strings.Repeat("5,6,7,8\n", 10),
		strings.Repeat("# comment\n", 20) + "1,2,3,4,5\n" + "1,2,x,4\n",
		strings.Repeat("1,2,3,4\n", 30) + "0,0,-1,1",
		// An overlong line in a later block, after a line at the cap.
		"1,2,3,4\n" + strings.Repeat(" ", maxLine) + "\n" + strings.Repeat("#", maxLine+1),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wantRects, wantErr := referenceRead(bytes.NewReader(data))
		rects, err := Read(bytes.NewReader(data))
		sameRead(t, "Read", data, rects, err, wantRects, wantErr)
		small, err := readShaped(bytes.NewReader(data), 8+len(data)%53, 1)
		sameRead(t, "Read in small blocks", data, small, err, wantRects, wantErr)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, rects); err != nil {
			t.Fatalf("Write of accepted rectangles: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of Write's output: %v\n%s", err, buf.Bytes())
		}
		sameRects(t, "round trip", back, rects)
	})
}

// readShaped is Read with readShape shrunk to blocks of block bytes and
// shards of at least minLines lines.
func readShaped(r io.Reader, block, minLines int) ([]geom.Rect, error) {
	defer func(old struct{ block, minLines int }) { readShape = old }(readShape)
	readShape.block, readShape.minLines = block, minLines
	return Read(r)
}

// sameRead fails t unless Read's answer matches referenceRead's: the
// same rectangles, or the same error text. The reference reports an
// overlong line as bufio.Scanner does; Read names the line.
func sameRead(t *testing.T, what string, data []byte, got []geom.Rect, err error, want []geom.Rect, wantErr error) {
	t.Helper()
	if wantErr == nil {
		if err != nil {
			t.Fatalf("%s: %v, where the reference accepts %d rectangles", what, err, len(want))
		}
		sameRects(t, what, got, want)
		return
	}
	wantText := wantErr.Error()
	if errors.Is(wantErr, bufio.ErrTooLong) {
		wantText = fmt.Sprintf("dataset: line %d: longer than %d bytes", overlongLine(data), maxLine)
	}
	if err == nil || err.Error() != wantText {
		t.Fatalf("%s: error %v, want %s", what, err, wantText)
	}
}

func sameRects(t *testing.T, what string, got, want []geom.Rect) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rectangles, want %d", what, len(got), len(want))
	}
	for i, r := range want {
		g := got[i]
		for j, pair := range [4][2]float64{{r.X, g.X}, {r.Y, g.Y}, {r.L, g.L}, {r.B, g.B}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("%s: rectangle %d field %d: %v read as %v", what, i, j+1, pair[0], pair[1])
			}
		}
	}
}

// overlongLine is the number of the first line of data longer than
// maxLine bytes, 0 if there is none.
func overlongLine(data []byte) int {
	for i, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) > maxLine {
			return i + 1
		}
	}
	return 0
}

// referenceRead is the loader Read replaced, a bufio.Scanner loop kept
// verbatim as the oracle of Read's accepted inputs, answers and errors.
func referenceRead(r io.Reader) ([]geom.Rect, error) {
	var rects []geom.Rect
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("dataset: line %d: want 4 comma-separated fields, got %d", lineNo, len(parts))
		}
		var vals [4]float64
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d field %d: %w", lineNo, i+1, err)
			}
			vals[i] = v
		}
		rect, err := geom.NewRect(vals[0], vals[1], vals[2], vals[3])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
		rects = append(rects, rect)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rects, nil
}
