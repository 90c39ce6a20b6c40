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

// oracleBody encodes a page the way a json.Encoder writer would: the
// request clamped, the IDs copied into a ResultPage, and the page
// encoded. It is the reference the streamed body is held to.
func oracleBody(tb testing.TB, id string, rows spatial.Rows, offset, limit int) []byte {
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
	page := ResultPage{ID: id, Total: rows.Len(), Offset: offset}
	if offset < rows.Len() {
		hi := min(offset+limit, rows.Len())
		for i := offset; i < hi; i++ {
			page.Tuples = append(page.Tuples, rows.IDs[i*rows.Arity:(i+1)*rows.Arity])
		}
		page.Count = hi - offset
		if hi < rows.Len() {
			page.NextOffset = &hi
		}
	}
	return encode(tb, &page)
}

// encode is json.Encoder's output.
func encode(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
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
// byte for byte, to Server.Result's page, and, decoded, to the rows it
// should carry.
func checkResultPage(t *testing.T, s *Server, h http.Handler, id string, rows spatial.Rows, offset, limit int) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", resultPath(id, offset, limit), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("offset %d limit %d: status %d: %s", offset, limit, rec.Code, rec.Body)
	}
	want := oracleBody(t, id, rows, offset, limit)
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("offset %d limit %d: body differs from encoding/json's\n got  %.400q\n want %.400q", offset, limit, got, want)
	}
	page, err := s.Result(id, offset, limit)
	if err != nil {
		t.Fatal(err)
	}
	if viaResult := encode(t, page); !bytes.Equal(viaResult, want) {
		t.Fatalf("offset %d limit %d: Server.Result's page encodes to\n %.400q\n want %.400q", offset, limit, viaResult, want)
	}
	var back ResultPage
	if err := json.Unmarshal(rec.Body.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Total != rows.Len() || back.Count != len(back.Tuples) {
		t.Fatalf("offset %d limit %d: decoded total %d count %d (%d rows), want total %d",
			offset, limit, back.Total, back.Count, len(back.Tuples), rows.Len())
	}
	for i, row := range back.Tuples {
		ids := rows.At(back.Offset + i)
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

// decodeRows reads int32s, little-endian, from data into rows of arity
// 1 + arity%4; a short tail is dropped.
func decodeRows(data []byte, arity uint8) spatial.Rows {
	rows := spatial.Rows{Arity: 1 + int(arity%4)}
	for ; len(data) >= 4*rows.Arity; data = data[4*rows.Arity:] {
		for k := range rows.Arity {
			rows.IDs = append(rows.IDs, int32(binary.LittleEndian.Uint32(data[4*k:])))
		}
	}
	return rows
}

// FuzzResultPage holds GET /v1/jobs/{id}/result to encoding/json on
// random results, offsets and limits: the body must be the oracle's
// bytes and decode back to the page's IDs.
func FuzzResultPage(f *testing.F) {
	f.Add([]byte{}, uint8(0), 0, 0)
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}, uint8(2), 0, 0)
	f.Add(bytes.Repeat([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80}, 40), uint8(1), 3, 5)
	f.Add(bytes.Repeat([]byte{7, 0xfe}, 90), uint8(3), -4, -1)
	f.Add(bytes.Repeat([]byte{9}, 64), uint8(0), 63, MaxPageLimit+1)
	s, h := newResultServer(f)
	f.Fuzz(func(t *testing.T, data []byte, arity uint8, offset, limit int) {
		rows := decodeRows(data, arity)
		addDoneJob(s, "j000001", rows)
		checkResultPage(t, s, h, "j000001", rows, offset, limit)
	})
}

// TestResultPageMatchesEncoder runs the oracle comparison over what a
// fuzz corpus of small inputs rarely reaches: a page cut at
// MaxPageLimit, a defaulted page of a longer result, results of arity
// 1, 2 and 4, and IDs that need escaping.
func TestResultPageMatchesEncoder(t *testing.T) {
	s, h := newResultServer(t)
	long := goldenRows(MaxPageLimit + 5)
	addDoneJob(s, "j000001", long)
	for _, c := range []struct{ offset, limit int }{
		{3, MaxPageLimit + 1}, {2, 0}, {MaxPageLimit + 4, -1}, {MaxPageLimit + 5, 1},
	} {
		checkResultPage(t, s, h, "j000001", long, c.offset, c.limit)
	}
	arities := []spatial.Rows{
		{Arity: 1, IDs: []int32{1, math.MaxInt32, -1}},
		{Arity: 2, IDs: []int32{0, math.MinInt32, -5, 6}},
		{Arity: 4, IDs: []int32{-5, 6, 7, 8, math.MinInt32, 0, math.MaxInt32, 9}},
	}
	for i, rows := range arities {
		id := "j00000" + strconv.Itoa(2+i)
		addDoneJob(s, id, rows)
		checkResultPage(t, s, h, id, rows, 0, 0)
		checkResultPage(t, s, h, id, rows, 1, 1)
	}
	for _, id := range []string{"j<&>", "j\"\\", "j\t\x01", "jé ", "j\xff"} {
		for _, rows := range arities {
			var got bytes.Buffer
			if err := writeResultPage(&got, id, rows, 0, 1); err != nil {
				t.Fatal(err)
			}
			if want := oracleBody(t, id, rows, 0, 1); !bytes.Equal(got.Bytes(), want) {
				t.Errorf("id %q, arity %d: body differs from encoding/json's\n got  %q\n want %q", id, rows.Arity, got.Bytes(), want)
			}
		}
	}
}

// TestResultPagesWhileJobsFinish reads pages over HTTP from several
// goroutines while a job runs, then of a cache hit sharing its result:
// the writer reads the slab outside the server mutex, so under -race
// this checks that nothing writes it once the job is done.
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
	rows, err := s.resultRows(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	for g, offset := range offsets {
		if want := oracleBody(t, first.ID, rows, offset, 7); !bytes.Equal(running[g], want) {
			t.Errorf("offset %d while running: %.300q, want %.300q", offset, running[g], want)
		}
		if want := oracleBody(t, hit.ID, rows, offset, 7); !bytes.Equal(cached[g], want) {
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
	addDoneJob(s, "j000001", goldenRows(MaxPageLimit))
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
	addDoneJob(s, "j000001", goldenRows(10_000))
	w := &discardResponse{h: make(http.Header)}
	r := httptest.NewRequest("GET", resultPath("j000001", 0, 10_000), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, r)
	}
	b.SetBytes(int64(w.n / b.N))
}
