package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"mwsjoin/internal/spatial"
)

// resultGoldenFile pins the exact bodies GET /v1/jobs/{id}/result
// answers for a fixed result, one case per line. A json.Encoder writer
// wrote it at commit 0764cf6, indented; when pages became compact it
// was written once more by encoding/json alone, outside this package,
// and each body was checked to be json.Compact of the indented one plus
// its newline. The bodies are the reference, and no code path rewrites
// them.
const resultGoldenFile = "testdata/result_page_golden.json"

// resultGoldenTotal is the fixed result's size: a few tuples past
// DefaultPageLimit, so a defaulted limit shows as a full page with a
// next_offset.
const resultGoldenTotal = DefaultPageLimit + 3

type resultGolden struct {
	Name        string `json:"name"`
	Path        string `json:"path"`
	Status      int    `json:"status"`
	ContentType string `json:"content_type"`
	Body        string `json:"body"`
}

// goldenRows builds a deterministic n-row arity-3 result whose IDs span
// the int32 range: the first row holds both extremes and zero, the rest
// come from a linear congruential sequence shifted to mixed magnitudes.
func goldenRows(n int) spatial.Rows {
	rows := spatial.Rows{Arity: 3, IDs: make([]int32, 3*n)}
	x := uint32(2013)
	for i := range rows.IDs {
		x = x*1664525 + 1013904223
		rows.IDs[i] = int32(x) >> (x % 31)
	}
	if n > 0 {
		copy(rows.IDs, []int32{math.MaxInt32, 0, math.MinInt32})
	}
	return rows
}

// addDoneJob registers a finished job holding rows, as runJob leaves
// one, so the result path can be driven without running a query.
func addDoneJob(s *Server, id string, rows spatial.Rows) {
	j := &Job{id: id, state: StateDone, res: &result{rows: rows}, done: make(chan struct{})}
	close(j.done)
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
}

// resultGoldenCases are the pages the golden pins: the paging walk
// (first, middle, last), every clamping rule, and a zero-tuple result.
var resultGoldenCases = []struct{ name, path string }{
	{"first page", "/v1/jobs/j000001/result?limit=4"},
	{"middle page", "/v1/jobs/j000001/result?offset=4&limit=4"},
	{"last page", "/v1/jobs/j000001/result?offset=999&limit=4"},
	{"offset at total", "/v1/jobs/j000001/result?offset=1003&limit=4"},
	{"offset past total", "/v1/jobs/j000001/result?offset=5000"},
	{"negative offset", "/v1/jobs/j000001/result?offset=-7&limit=3"},
	{"limit zero", "/v1/jobs/j000001/result?offset=2&limit=0"},
	{"negative limit", "/v1/jobs/j000001/result?offset=1&limit=-9"},
	{"limit above max", "/v1/jobs/j000001/result?offset=996&limit=100001"},
	{"no parameters on empty result", "/v1/jobs/j000002/result"},
	{"paged empty result", "/v1/jobs/j000002/result?offset=3&limit=5"},
}

// TestResultPageGolden holds every result page body to the bytes
// encoding/json produced for it.
func TestResultPageGolden(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	addDoneJob(s, "j000001", goldenRows(resultGoldenTotal))
	addDoneJob(s, "j000002", spatial.Rows{Arity: 3})
	h := NewHandler(s, nil)

	var got []resultGolden
	for _, c := range resultGoldenCases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", c.path, nil))
		got = append(got, resultGolden{
			Name:        c.name,
			Path:        c.path,
			Status:      rec.Code,
			ContentType: rec.Header().Get("Content-Type"),
			Body:        rec.Body.String(),
		})
	}
	data, err := os.ReadFile(resultGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []resultGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.Path != w.Path {
			t.Fatalf("case %d is %q (%s), golden has %q (%s)", i, g.Name, g.Path, w.Name, w.Path)
		}
		if g.Status != http.StatusOK || g.Status != w.Status || g.ContentType != w.ContentType {
			t.Errorf("%s: status %d %q, golden %d %q", w.Name, g.Status, g.ContentType, w.Status, w.ContentType)
		}
		if g.Body != w.Body {
			t.Errorf("%s: body differs from the golden\n got  %.300q\n want %.300q", w.Name, g.Body, w.Body)
		}
	}
}
