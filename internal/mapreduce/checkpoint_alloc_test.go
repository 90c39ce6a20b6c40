package mapreduce

import (
	"encoding/binary"
	"runtime"
	"testing"

	"mwsjoin/internal/dfs"
)

// TestCheckpointAllocatesPerSegment: committing a step's output and
// reading it back costs per segment, never per record. A step whose
// 100,000 records of 74 bytes are held in 8 KiB pages — the cascade's
// partials, 110 to a page — may allocate at most twice what a step of
// 10,000 such records does; a slice header per record, the table the
// chain once took over, costs ten times as much.
func TestCheckpointAllocatesPerSegment(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory allocates")
	}
	const stride = 74
	step := func(n int) uint64 {
		// The pages exist before the step, as a reducer's do, and are
		// the step's segments.
		var pages [][]byte
		for i := 0; i < n; {
			page := make([]byte, PageBytes)
			k := 0
			for ; i < n && (k+1)*stride <= PageBytes; i, k = i+1, k+1 {
				binary.LittleEndian.PutUint32(page[k*stride:], uint32(i))
			}
			pages = append(pages, page[:k*stride])
		}
		fs := dfs.New(0)
		ch := NewChain(ChainConfig{Name: "pages", FS: fs})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := ch.Step("s0", func(*dfs.View) (dfs.Segments, *Stats, error) {
			return dfs.Segments{Stride: stride, Segs: pages}, &Stats{Job: "s0"}, nil
		}); err != nil {
			t.Fatal(err)
		}
		in, err := ch.Output()
		if err != nil {
			t.Fatal(err)
		}
		next := uint32(0)
		if err := in.Records(0, in.Len(), func(rec []byte) error {
			if got := binary.LittleEndian.Uint32(rec); len(rec) != stride || got != next {
				t.Fatalf("record %d reads back as %d bytes, number %d", next, len(rec), got)
			}
			next++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if next != uint32(n) {
			t.Fatalf("read back %d of %d records", next, n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// The least of three runs each: the first call of the process also
	// caches the meta record's JSON encoder.
	least := func(n int) uint64 { return min(step(n), step(n), step(n)) }
	small, large := least(10_000), least(100_000)
	t.Logf("commit and reopen: 10,000 records %d B, 100,000 records %d B", small, large)
	if large > 2*small {
		t.Errorf("100,000 records cost %d B, more than twice the %d B of 10,000", large, small)
	}
}
