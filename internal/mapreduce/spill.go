package mapreduce

import (
	"cmp"
	"fmt"

	"mwsjoin/internal/dfs"
)

// Map-side spill: when Config.SpillBudget bounds the bytes a mapper
// may keep in memory per sorted run, finalized runs over the budget
// are written to local-disk scratch (dfs.CreateLocal — uncharged, the
// way Hadoop spills land on the tasktracker's local filesystem rather
// than HDFS) and re-read by the shuffle just before the merge tree
// consumes them. The run is already key-sorted and combined when it
// spills, so the re-read slots straight into the existing pairwise
// merge; results, DFS Stats and every non-Spill* engine counter are
// bit-identical to an in-memory shuffle.

// spillStore is the slice of the dfs.FS surface the spill path uses;
// an interface so the pool's discard helper needs no dfs import.
type spillStore interface {
	CreateLocal(name string) *dfs.Writer
	Scan(name string, fn func(record []byte) error) error
	Delete(name string) error
}

// spillBatch writes one finalized sorted run to local scratch and
// returns its in-memory pairs to the pool — freeing the memory is the
// entire point. Records are framed one per pair in run order, so the
// re-read reproduces the exact sorted sequence.
func spillBatch[K cmp.Ordered, V any](b *pairBatch[K, V], fs spillStore, name string, encode func(K, V, []byte) []byte, pool *BufferPool) {
	w := fs.CreateLocal(name)
	var bytes int64
	for i := range b.pairs {
		rec := encode(b.pairs[i].key, b.pairs[i].val, nil)
		bytes += int64(len(rec))
		w.AppendOwned(rec)
	}
	// Local writers cannot fail short of a double close.
	_ = w.Close()
	b.spill = name
	b.spillBytes = bytes
	b.n = len(b.pairs)
	putBuf(&pool.pairs, b.pairs)
	b.pairs = nil
}

// readSpill materializes a spilled run back into memory for the merge
// and deletes the scratch file — each run is read exactly once.
func readSpill[K cmp.Ordered, V any](b *pairBatch[K, V], fs spillStore, decode func([]byte) (K, V, error), pool *BufferPool) error {
	ps := getBuf[pair[K, V]](&pool.pairs, b.n)
	name := b.spill
	err := fs.Scan(name, func(rec []byte) error {
		k, v, err := decode(rec)
		if err != nil {
			return fmt.Errorf("mapreduce: spilled run %s: %w", name, err)
		}
		ps = append(ps, pair[K, V]{key: k, val: v})
		return nil
	})
	_ = fs.Delete(name) // consumed (or poisoned) either way
	b.spill = ""
	if err != nil {
		putBuf(&pool.pairs, ps)
		return err
	}
	b.pairs = ps
	return nil
}
