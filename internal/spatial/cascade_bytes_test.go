package spatial_test

import (
	"strings"
	"testing"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/spatial"
)

// The paid bytes of one cascade_uniform query at seed 2013 while every
// partial carried every member's rectangle to the end of the chain
// (74-byte two-member and 110-byte three-member records): what the
// benchmark's dfs.read_mb, dfs.written_mb and mapreduce.intermediate_mb
// read then.
const (
	fullRecordDFSRead      = 15_949_714
	fullRecordDFSWritten   = 15_951_028
	fullRecordIntermediate = 10_555_728
)

// TestCascadeBytesAtBenchmarkShape holds one cascade at the benchmark's
// cascade_uniform shape to a byte ledger recomputed from its counts: the
// DFS bytes written are the three staged relations, each round's output
// records at its layout's stride and the checkpoint metas; those read
// are the relations, the first round's checkpoint and the final one;
// and each round's IntermediateBytes prices a tuple pair at 4 bytes of
// key plus its input layout's stride and an item pair at 4 plus the
// 38-byte item record. Every figure must match to the byte, and the
// DFS bytes each, and the paid bytes together, must be at most 70 % of
// the full-record figures above. (IntermediateBytes alone cannot be:
// the item pairs, most of them, did not shrink.)
func TestCascadeBytesAtBenchmarkShape(t *testing.T) {
	q, rels, cfg := benchmarkShape(t)
	cfg.FS = dfs.New(0)
	defer cfg.FS.Close()
	res, err := spatial.Execute(spatial.Cascade, q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recordBytes, itemPairs, err := spatial.CascadeShape(q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var relations, metas int64
	for _, rel := range rels {
		relations += int64(len(rel.Items)) * dfs.MBBRecordBytes
	}
	for _, name := range cfg.FS.List() {
		if strings.HasSuffix(name, ".meta") {
			n, _, err := cfg.FS.Size(name)
			if err != nil {
				t.Fatal(err)
			}
			metas += n
		}
	}
	var checkpoints, intermediate, gotIntermediate int64
	for i, r := range res.Stats.Rounds {
		p := i + 1
		checkpoints += r.ReduceOutputRecords * int64(recordBytes[p+1])
		tuplePairs := r.IntermediatePairs - itemPairs[p]
		intermediate += tuplePairs*int64(4+recordBytes[p]) + itemPairs[p]*(4+dfs.MBBRecordBytes)
		gotIntermediate += r.IntermediateBytes
		t.Logf("round %d: %d tuple pairs at 4 + %d B, %d item pairs at 4 + %d B; %d records at %d B", p, tuplePairs, recordBytes[p], itemPairs[p], dfs.MBBRecordBytes, r.ReduceOutputRecords, recordBytes[p+1])
	}
	wantWritten := relations + checkpoints + metas
	// Every relation is read once; every checkpoint once, by the next
	// round or by assemble-tuples. A clean run reads no meta.
	wantRead := relations + checkpoints
	got := res.Stats.DFS
	t.Logf("DFS read %d, written %d, IntermediateBytes %d (metas %d B)", got.BytesRead, got.BytesWritten, gotIntermediate, metas)
	if got.BytesRead != wantRead || got.BytesWritten != wantWritten || gotIntermediate != intermediate {
		t.Errorf("DFS read %d, written %d, IntermediateBytes %d; the ledger says %d, %d, %d", got.BytesRead, got.BytesWritten, gotIntermediate, wantRead, wantWritten, intermediate)
	}
	if recordBytes[len(recordBytes)-1] != 2+4*q.NumSlots() {
		t.Errorf("final records are %d bytes, want count and ids alone, %d", recordBytes[len(recordBytes)-1], 2+4*q.NumSlots())
	}
	paid := got.BytesRead + got.BytesWritten + gotIntermediate
	full := int64(fullRecordDFSRead + fullRecordDFSWritten + fullRecordIntermediate)
	for _, c := range []struct {
		what      string
		got, full int64
	}{
		{"DFS read", got.BytesRead, fullRecordDFSRead},
		{"DFS written", got.BytesWritten, fullRecordDFSWritten},
		{"paid bytes", paid, full},
	} {
		if 10*c.got > 7*c.full {
			t.Errorf("%s: %d B, more than 70 %% of the full-record %d B", c.what, c.got, c.full)
		}
	}
}
