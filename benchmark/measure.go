package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// refKernelMS times a fixed sort-and-sum over 200,000 pseudo-random
// words (≈ 20 ms on the reference host). It touches nothing of the
// program under test, so a pass whose reference time is off ran on a
// slow host, not on a slow program.
func refKernelMS() float64 {
	start := time.Now()
	xs := make([]uint64, 200_000)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = x
	}
	slices.Sort(xs)
	var sum uint64
	for i, v := range xs {
		sum += v ^ uint64(i)
	}
	d := time.Since(start)
	if sum == 0 { // keeps the loop's result live
		return 0
	}
	return ms(d)
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// cpuJiffies returns the host's total and stolen CPU time so far.
func cpuJiffies() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue
		}
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

func loadAverage() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	return strings.Join(strings.Fields(string(data))[:3], " ")
}

// span is one traced interval at a layer boundary. Spans of one query
// share QueryID; Parent is the span that caused this one (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	QueryID int    `json:"query_id"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spanLog keeps spans in memory until the pass ends. A nil log records
// nothing, which is how untraced passes run.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) start(name string, parent, queryID int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Microseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, QueryID: queryID, Name: name, StartUS: now, EndUS: -1})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Microseconds()
	l.mu.Lock()
	l.spans[id-1].EndUS = now
	l.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the
// engine's own tracer), offset from the log's origin.
func (l *spanLog) add(name string, parent, queryID int, start time.Time, dur time.Duration) int {
	if l == nil {
		return 0
	}
	s := start.Sub(l.t0).Microseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, QueryID: queryID, Name: name, StartUS: s, EndUS: s + dur.Microseconds()})
	return id
}

// durationsMS returns the length of every finished span with the name.
func (l *spanLog) durationsMS(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && s.EndUS >= 0 {
			out = append(out, float64(s.EndUS-s.StartUS)/1e3)
		}
	}
	return out
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	spans := l.spans
	l.mu.Unlock()
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
