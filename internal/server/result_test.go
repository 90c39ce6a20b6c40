package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"mwsjoin/internal/spatial"
)

// oracleBody encodes a page the way the json.Encoder writer did: the
// request clamped, the IDs copied into a ResultPage, and the page
// encoded with two-space indentation. It is the reference the streamed
// body is held to.
func oracleBody(tb testing.TB, id string, tuples []spatial.Tuple, offset, limit int) []byte {
	tb.Helper()
	if offset < 0 {
		offset = 0
	}
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	if limit > MaxPageLimit {
		limit = MaxPageLimit
	}
	page := ResultPage{ID: id, Total: len(tuples), Offset: offset}
	if offset < len(tuples) {
		hi := min(offset+limit, len(tuples))
		for _, t := range tuples[offset:hi] {
			page.Tuples = append(page.Tuples, t.IDs)
		}
		page.Count = hi - offset
		if hi < len(tuples) {
			page.NextOffset = &hi
		}
	}
	return encodeIndented(tb, &page)
}

// encodeIndented is json.Encoder's output with two-space indentation.
func encodeIndented(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// newResultServer starts a one-worker server and its handler for
// driving the result path over jobs added with addDoneJob.
func newResultServer(tb testing.TB) (*Server, http.Handler) {
	s := New(Config{Workers: 1})
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx) //nolint:errcheck // best-effort cleanup
	})
	return s, NewHandler(s, nil)
}

func resultPath(id string, offset, limit int) string {
	return "/v1/jobs/" + id + "/result?offset=" + strconv.Itoa(offset) + "&limit=" + strconv.Itoa(limit)
}

// checkResultPage fetches one page over HTTP and holds it to the oracle
// byte for byte, to Server.Result's page, and, decoded, to the tuples
// it should carry.
func checkResultPage(t *testing.T, s *Server, h http.Handler, id string, tuples []spatial.Tuple, offset, limit int) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", resultPath(id, offset, limit), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("offset %d limit %d: status %d: %s", offset, limit, rec.Code, rec.Body)
	}
	want := oracleBody(t, id, tuples, offset, limit)
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("offset %d limit %d: body differs from encoding/json's\n got  %.400q\n want %.400q", offset, limit, got, want)
	}
	page, err := s.Result(id, offset, limit)
	if err != nil {
		t.Fatal(err)
	}
	if viaResult := encodeIndented(t, page); !bytes.Equal(viaResult, want) {
		t.Fatalf("offset %d limit %d: Server.Result's page encodes to\n %.400q\n want %.400q", offset, limit, viaResult, want)
	}
	var back ResultPage
	if err := json.Unmarshal(rec.Body.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Total != len(tuples) || back.Count != len(back.Tuples) {
		t.Fatalf("offset %d limit %d: decoded total %d count %d (%d rows), want total %d",
			offset, limit, back.Total, back.Count, len(back.Tuples), len(tuples))
	}
	for i, row := range back.Tuples {
		ids := tuples[back.Offset+i].IDs
		if len(row) != len(ids) {
			t.Fatalf("row %d: %v, want %v", back.Offset+i, row, ids)
		}
		for k := range row {
			if row[k] != ids[k] {
				t.Fatalf("row %d: %v, want %v", back.Offset+i, row, ids)
			}
		}
	}
}

// decodeTuples reads int32s, little-endian, from data into tuples of
// arity 1 + arity%4; a short tail is dropped.
func decodeTuples(data []byte, arity uint8) []spatial.Tuple {
	n := 1 + int(arity%4)
	var tuples []spatial.Tuple
	for len(data) >= 4*n {
		ids := make([]int32, n)
		for k := range ids {
			ids[k] = int32(binary.LittleEndian.Uint32(data[4*k:]))
		}
		tuples = append(tuples, spatial.Tuple{IDs: ids})
		data = data[4*n:]
	}
	return tuples
}

// FuzzResultPage holds GET /v1/jobs/{id}/result to encoding/json on
// random tuple sets, offsets and limits: the body must be the oracle's
// bytes and decode back to the page's IDs.
func FuzzResultPage(f *testing.F) {
	f.Add([]byte{}, uint8(0), 0, 0)
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}, uint8(2), 0, 0)
	f.Add(bytes.Repeat([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80}, 40), uint8(1), 3, 5)
	f.Add(bytes.Repeat([]byte{7, 0xfe}, 90), uint8(3), -4, -1)
	f.Add(bytes.Repeat([]byte{9}, 64), uint8(0), 63, MaxPageLimit+1)
	s, h := newResultServer(f)
	f.Fuzz(func(t *testing.T, data []byte, arity uint8, offset, limit int) {
		tuples := decodeTuples(data, arity)
		addDoneJob(s, "j000001", tuples)
		checkResultPage(t, s, h, "j000001", tuples, offset, limit)
	})
}

// TestResultPageMatchesEncoder runs the oracle comparison over what a
// fuzz corpus of small inputs rarely reaches: a page cut at
// MaxPageLimit, a defaulted page of a longer result, tuples of mixed
// arity, and IDs that need escaping.
func TestResultPageMatchesEncoder(t *testing.T) {
	s, h := newResultServer(t)
	long := goldenTuples(MaxPageLimit + 5)
	addDoneJob(s, "j000001", long)
	for _, c := range []struct{ offset, limit int }{
		{3, MaxPageLimit + 1}, {2, 0}, {MaxPageLimit + 4, -1}, {MaxPageLimit + 5, 1},
	} {
		checkResultPage(t, s, h, "j000001", long, c.offset, c.limit)
	}
	mixed := []spatial.Tuple{{IDs: []int32{1}}, {IDs: []int32{-5, 6, 7, 8}}, {IDs: []int32{0, math.MinInt32}}}
	addDoneJob(s, "j000002", mixed)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/j000002/result", nil))
	if want := oracleBody(t, "j000002", mixed, 0, 0); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("mixed arity: body differs from encoding/json's\n got  %q\n want %q", rec.Body, want)
	}
	for _, id := range []string{"j<&>", "j\"\\", "j\t\x01", "jé ", "j\xff"} {
		var got bytes.Buffer
		if err := writeResultPage(&got, id, mixed, 0, 1); err != nil {
			t.Fatal(err)
		}
		if want := oracleBody(t, id, mixed, 0, 1); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("id %q: body differs from encoding/json's\n got  %q\n want %q", id, got.Bytes(), want)
		}
	}
}

// TestResultPagesWhileJobsFinish reads pages over HTTP from several
// goroutines while a job runs, then of a cache hit sharing its result:
// the writer reads the tuples outside the server mutex, so under -race
// this checks that nothing writes them once the job is done.
func TestResultPagesWhileJobsFinish(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	h := NewHandler(s, nil)
	// fetchAll GETs each page from a goroutine of its own, again while
	// the job has no result yet (409), and returns the bodies.
	fetchAll := func(id string, offsets []int) [][]byte {
		bodies := make([][]byte, len(offsets))
		var wg sync.WaitGroup
		for g, offset := range offsets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("GET", resultPath(id, offset, 7), nil))
					if rec.Code != http.StatusConflict {
						bodies[g] = rec.Body.Bytes()
						return
					}
				}
			}()
		}
		wg.Wait()
		return bodies
	}
	req := SubmitRequest{Query: "A ov B and B ov C", Method: "2-way-cascade"}
	first := submit(t, s, req)
	offsets := []int{0, 5, 10, 15}
	running := fetchAll(first.ID, offsets)
	if st := waitJob(t, s, first.ID); st.State != StateDone || st.OutputTuples < 22 {
		t.Fatalf("job %s with %d tuples, want done with at least 22", st.State, st.OutputTuples)
	}
	hit := submit(t, s, req)
	if !hit.Cached {
		t.Fatal("resubmission missed the cache")
	}
	cached := fetchAll(hit.ID, offsets)
	tuples, err := s.resultTuples(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	for g, offset := range offsets {
		if want := oracleBody(t, first.ID, tuples, offset, 7); !bytes.Equal(running[g], want) {
			t.Errorf("offset %d while running: %.300q, want %.300q", offset, running[g], want)
		}
		if want := oracleBody(t, hit.ID, tuples, offset, 7); !bytes.Equal(cached[g], want) {
			t.Errorf("offset %d of the cache hit: %.300q, want %.300q", offset, cached[g], want)
		}
	}
}

// discardResponse is an http.ResponseWriter that keeps none of the
// body, so a measurement counts only what writing a page allocates.
type discardResponse struct {
	h http.Header
	n int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestResultPageAllocs: the page body streams through one pooled
// buffer, so a 100,000-tuple page allocates no more than a 1,000-tuple
// page plus a small constant.
func TestResultPageAllocs(t *testing.T) {
	s, h := newResultServer(t)
	addDoneJob(s, "j000001", goldenTuples(MaxPageLimit))
	allocs := func(limit int) float64 {
		w := &discardResponse{h: make(http.Header)}
		r := httptest.NewRequest("GET", resultPath("j000001", 0, limit), nil)
		return testing.AllocsPerRun(20, func() { h.ServeHTTP(w, r) })
	}
	small, large := allocs(1000), allocs(MaxPageLimit)
	t.Logf("allocations per page: %.1f for 1,000 tuples, %.1f for 100,000", small, large)
	if large > small+4 {
		t.Errorf("a 100,000-tuple page allocates %.1f times, a 1,000-tuple page %.1f: writing must not grow with the page", large, small)
	}
}

// BenchmarkResultPage serves one 10,000-tuple arity-3 page of a done
// job through the handler into a writer that discards it.
func BenchmarkResultPage(b *testing.B) {
	s, h := newResultServer(b)
	addDoneJob(s, "j000001", goldenTuples(10_000))
	w := &discardResponse{h: make(http.Header)}
	r := httptest.NewRequest("GET", resultPath("j000001", 0, 10_000), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, r)
	}
	b.SetBytes(int64(w.n / b.N))
}
