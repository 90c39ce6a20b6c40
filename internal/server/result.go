package server

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

	"mwsjoin/internal/spatial"
)

// ResultPage is one page of a done job's tuples.
type ResultPage struct {
	ID     string `json:"id"`
	Total  int    `json:"total"`
	Offset int    `json:"offset"`
	Count  int    `json:"count"`
	// Tuples holds the page's output rows: rectangle IDs in query-slot
	// order.
	Tuples [][]int32 `json:"tuples"`
	// NextOffset is the offset of the next page, absent on the last.
	NextOffset *int `json:"next_offset,omitempty"`
}

// DefaultPageLimit and MaxPageLimit bound result pagination.
const (
	DefaultPageLimit = 1000
	MaxPageLimit     = 100_000
)

// pageBounds clamps a page request to a result of total rows: a
// negative offset reads from 0, a non-positive limit means
// DefaultPageLimit, and no page is longer than MaxPageLimit. The page
// is rows [off, hi); hi == off when off is at or past total.
func pageBounds(total, offset, limit int) (off, hi int) {
	if offset < 0 {
		offset = 0
	}
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	if limit > MaxPageLimit {
		limit = MaxPageLimit
	}
	if offset >= total {
		return offset, offset
	}
	return offset, offset + min(limit, total-offset)
}

// result is a done job's answer as the engine wrote it: the ID slab
// and the run's Stats. It is never written again, so a cache hit
// shares it and pages read it without the server mutex.
type result struct {
	rows  spatial.Rows
	stats spatial.Stats
}

// resultRows returns a done job's rows. Jobs that failed, were
// cancelled, or are still in flight have no result (ErrJobNotDone).
func (s *Server) resultRows(id string) (spatial.Rows, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return spatial.Rows{}, ErrNotFound
	}
	if j.state != StateDone {
		return spatial.Rows{}, fmt.Errorf("%w (state %s)", ErrJobNotDone, j.state)
	}
	return j.res.rows, nil
}

// Result returns one page of a done job's tuples. Jobs that failed,
// were cancelled, or are still in flight have no result (ErrJobNotDone).
func (s *Server) Result(id string, offset, limit int) (*ResultPage, error) {
	rows, err := s.resultRows(id)
	if err != nil {
		return nil, err
	}
	off, hi := pageBounds(rows.Len(), offset, limit)
	page := &ResultPage{ID: id, Total: rows.Len(), Offset: off, Count: hi - off}
	if hi > off {
		page.Tuples = make([][]int32, 0, hi-off)
		for i := off; i < hi; i++ {
			page.Tuples = append(page.Tuples, rows.At(i))
		}
		if hi < rows.Len() {
			page.NextOffset = &hi
		}
	}
	return page, nil
}

// resultFlushBytes is how much of a page body writeResultPage buffers
// before writing it out: a request holds one such buffer whatever the
// page size.
const resultFlushBytes = 32 << 10

// resultBufs pools writeResultPage's buffers.
var resultBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2*resultFlushBytes)
	return &b
}}

// writeResultPage writes rows [off, hi) of a result as the JSON of its
// ResultPage under id, byte for byte what json.Encoder writes for that
// page: the IDs are appended straight from the slab, and the body
// leaves in resultFlushBytes pieces.
func writeResultPage(w io.Writer, id string, rows spatial.Rows, off, hi int) error {
	bp := resultBufs.Get().(*[]byte)
	b := (*bp)[:0]
	defer func() {
		*bp = b[:0]
		resultBufs.Put(bp)
	}()
	b = append(b, `{"id":`...)
	b = appendJSONString(b, id)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(rows.Len()), 10)
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, int64(off), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(hi-off), 10)
	if hi == off {
		b = append(b, ",\"tuples\":null}\n"...)
		_, err := w.Write(b)
		return err
	}
	b = append(b, `,"tuples":[`...)
	for i := off; i < hi; i++ {
		if i > off {
			b = append(b, ',')
		}
		b = append(b, '[')
		for k, id := range rows.At(i) {
			if k > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(b, ']')
		if len(b) >= resultFlushBytes {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	b = append(b, ']')
	if hi < rows.Len() {
		b = append(b, `,"next_offset":`...)
		b = strconv.AppendInt(b, int64(hi), 10)
	}
	b = append(b, "}\n"...)
	_, err := w.Write(b)
	return err
}

// appendJSONString appends s as encoding/json quotes it. A job ID is
// plain ASCII and is copied between quotes; any string that needs an
// escape goes through json.Marshal, so HTML, control and non-ASCII
// characters are escaped exactly as encoding/json escapes them.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) //nolint:errcheck // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
