package dfs

import (
	"testing"

	"mwsjoin/internal/trace"
)

// TestSetTraceAttributesIO: DFS reads and writes flow into the
// attached span's counters and match the FS's own Stats counters.
func TestSetTraceAttributesIO(t *testing.T) {
	fs := New(0)
	tr := trace.New()
	span := tr.Start(0, trace.KindRound, "stage")
	fs.SetTrace(tr, span)

	if err := fs.WriteFile("f", [][]byte{[]byte("abcd"), []byte("ef")}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Scan("f", func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("f"); err != nil {
		t.Fatal(err)
	}
	tr.End(span)

	st := fs.Stats()
	s := tr.Spans()[0]
	if got := s.Counter("dfs_bytes_written"); got != st.BytesWritten || got != 6 {
		t.Errorf("dfs_bytes_written = %d, want %d", got, st.BytesWritten)
	}
	if got := s.Counter("dfs_records_written"); got != st.RecordsWritten {
		t.Errorf("dfs_records_written = %d, want %d", got, st.RecordsWritten)
	}
	if got := s.Counter("dfs_bytes_read"); got != st.BytesRead || got != 12 {
		t.Errorf("dfs_bytes_read = %d, want %d", got, st.BytesRead)
	}
	if got := s.Counter("dfs_records_read"); got != st.RecordsRead || got != 4 {
		t.Errorf("dfs_records_read = %d, want %d", got, st.RecordsRead)
	}
}

// TestSetTraceDetachAndRepoint: spans can be swapped between jobs, and
// detaching stops attribution without touching FS counters.
func TestSetTraceDetachAndRepoint(t *testing.T) {
	fs := New(0)
	tr := trace.New()
	round1 := tr.Start(0, trace.KindRound, "r1")
	round2 := tr.Start(0, trace.KindRound, "r2")

	fs.SetTrace(tr, round1)
	if err := fs.WriteFile("a", [][]byte{[]byte("xxxx")}); err != nil {
		t.Fatal(err)
	}
	fs.SetTrace(tr, round2)
	if err := fs.Scan("a", func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	fs.SetTrace(nil, 0)
	if err := fs.WriteFile("b", [][]byte{[]byte("yy")}); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	if got := spans[0].Counter("dfs_bytes_written"); got != 4 {
		t.Errorf("round1 writes = %d, want 4", got)
	}
	if got := spans[0].Counter("dfs_bytes_read"); got != 0 {
		t.Errorf("round1 reads = %d, want 0", got)
	}
	if got := spans[1].Counter("dfs_bytes_read"); got != 4 {
		t.Errorf("round2 reads = %d, want 4", got)
	}
	if got := spans[1].Counter("dfs_bytes_written"); got != 0 {
		t.Errorf("round2 writes = %d, want 0", got)
	}
	// Post-detach I/O is uncounted in the trace but still in Stats.
	if st := fs.Stats(); st.BytesWritten != 6 {
		t.Errorf("fs bytes written = %d, want 6", st.BytesWritten)
	}
}
