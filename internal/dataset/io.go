package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"

	"mwsjoin/internal/geom"
)

// The on-disk dataset format is one rectangle per line in the paper's
// (x, y, l, b) notation, comma separated, of at most maxLine bytes
// before its '\n'. Lines starting with '#' and blank lines are ignored.
const maxLine = 1<<20 - 1

// readShape is how Read cuts its input: blocks of block bytes (at most
// maxLine+1), their whole lines in up to GOMAXPROCS shards of at least
// minLines lines. Tests shrink it to cut small inputs as often.
var readShape = struct{ block, minLines int }{1 << 20, 2048}

// Write renders rectangles to w.
func Write(w io.Writer, rects []geom.Rect) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("# x,y,l,b — start-point (top-left) and dimensions\n"); err != nil {
		return err
	}
	line := make([]byte, 0, 128)
	for _, r := range rects {
		line = strconv.AppendFloat(line[:0], r.X, 'g', -1, 64)
		for _, v := range [3]float64{r.Y, r.L, r.B} {
			line = strconv.AppendFloat(append(line, ','), v, 'g', -1, 64)
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses rectangles from r, validating each, a block at a time on
// up to GOMAXPROCS goroutines. Its error is the first in line order: a
// read error comes after the lines read before it.
func Read(r io.Reader) ([]geom.Rect, error) {
	return read(r, 0)
}

// read is Read given r's size in bytes (0 if unknown), from which it
// sizes the output once the first block has shown how dense it is, and a
// block of a smaller input: its size and the byte that finds its end.
func read(r io.Reader, size int64) ([]geom.Rect, error) {
	var rects []geom.Rect
	var shards []shard
	block := readShape.block
	if size > 0 && size < int64(block) {
		block = int(size) + 1
	}
	buf, lines := make([]byte, block), 0
	for carry := 0; ; {
		n, rerr := fill(r, buf[carry:])
		data := buf[:carry+n]
		cut := bytes.LastIndexByte(data, '\n') + 1
		if rerr != nil && cut < len(data) { // the last line is whole
			data, cut = append(data, '\n'), len(data)+1
		}
		m := bytes.Count(data[:cut], newline)
		slots := min(m, cut/8) // a rectangle's line is at least "0,0,0,0\n"
		if need := len(rects) + slots; need > cap(rects) {
			// Room for an input of known size at this density and a sixteenth.
			est := min(bytes.Count(data[:cut], comma)/3, slots) // 3 commas a rectangle
			c := max(need, 2*cap(rects), int(size*int64(est)/int64(cut))*17/16)
			rects = append(make([]geom.Rect, 0, c), rects...)
		}
		// Line-aligned shards, each parsed into its range of the output.
		shards = shards[:0]
		block, out := data[:cut], rects[len(rects):len(rects)+slots]
		for k, line := max(1, min(runtime.GOMAXPROCS(0), m/readShape.minLines)), lines+1; k > 0; k-- {
			n := len(block)/k + bytes.IndexByte(block[len(block)/k:], '\n') + 1
			c := bytes.Count(block[:n], newline)
			shards = append(shards, shard{data: block[:n], out: out[:min(c, n/8)], line: line})
			block, out, line = block[n:], out[min(c, n/8):], line+c
		}
		var wg sync.WaitGroup
		for i := range shards {
			wg.Add(1)
			go func(s *shard) { defer wg.Done(); s.err = s.parse() }(&shards[i])
		}
		wg.Wait()
		for _, s := range shards {
			if s.err != nil {
				return nil, s.err
			}
			rects = append(rects, s.out[:s.n]...) // closes the gaps of blank and comment lines
		}
		lines += m
		if rerr == io.EOF {
			return rects, nil
		} else if rerr != nil {
			return nil, rerr
		}
		if carry = copy(buf, data[cut:]); carry > maxLine {
			return nil, fmt.Errorf("dataset: line %d: longer than %d bytes", lines+1, maxLine)
		} else if carry == len(buf) {
			buf = append(buf, make([]byte, min(len(buf), maxLine+1-len(buf)))...)
		}
	}
}

// fill reads into b until b is full or r fails; like bufio.Scanner, it
// gives up on a reader that returns nothing a hundred times running.
func fill(r io.Reader, b []byte) (n int, err error) {
	for empty := 0; n < len(b) && err == nil; {
		k, e := r.Read(b[n:])
		if n, err = n+k, e; k > 0 {
			empty = 0
		} else if empty++; empty > 100 && err == nil {
			err = io.ErrNoProgress
		}
	}
	return n, err
}

// shard is a run of whole lines and its range of the output.
type shard struct {
	data    []byte
	out     []geom.Rect
	line, n int // the number of its first line; rectangles parsed
	err     error
}

var newline, comma = []byte{'\n'}, []byte{','}

// parse parses the shard's lines into its range of the output.
func (s *shard) parse() (err error) {
	for data, line := s.data, s.line; len(data) > 0; line++ {
		b, rest, _ := bytes.Cut(data, newline)
		if data, b = rest, bytes.TrimSpace(b); len(b) == 0 || b[0] == '#' {
			continue
		}
		if n := bytes.Count(b, comma) + 1; n != 4 {
			return fmt.Errorf("dataset: line %d: want 4 comma-separated fields, got %d", line, n)
		}
		var v [4]float64
		for i := range v {
			var f []byte
			f, b, _ = bytes.Cut(b, comma)
			if v[i], err = strconv.ParseFloat(string(bytes.TrimSpace(f)), 64); err != nil {
				return fmt.Errorf("dataset: line %d field %d: %w", line, i+1, err)
			}
		}
		r, err := geom.NewRect(v[0], v[1], v[2], v[3])
		if err != nil {
			return fmt.Errorf("dataset: line %d: %w", line, err)
		}
		s.out[s.n], s.n = r, s.n+1
	}
	return nil
}

// WriteFile writes rectangles to the named file.
func WriteFile(path string, rects []geom.Rect) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, rects); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads rectangles from the named file.
func ReadFile(path string) ([]geom.Rect, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var size int64
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	return read(f, size)
}
