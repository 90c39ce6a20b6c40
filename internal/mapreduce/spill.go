package mapreduce

import (
	"fmt"

	"mwsjoin/internal/dfs"
)

// Map-side spill: when Config.SpillBudget bounds the bytes a mapper
// may keep in memory per run, finalized runs over the budget are
// written to local-disk scratch (dfs.CreateLocal — uncharged, the way
// Hadoop spills land on the tasktracker's local filesystem rather than
// HDFS) and read back by the shuffle straight into their reducer's
// input. The run is already combined when it spills, so results, DFS
// Stats and every non-Spill* engine counter are bit-identical to an
// in-memory shuffle.

// spillStore is the slice of the dfs.FS surface the spill path uses;
// an interface so the pool's discard helper needs no dfs import.
type spillStore interface {
	CreateLocal(name string) *dfs.Writer
	Scan(name string, fn func(record []byte) error) error
	Delete(name string) error
}

// spillRun writes one finalized run for reducer key to local scratch
// and returns its chunks to the pool — freeing the memory is the entire
// point. The run is encoded into one buffer, one record per pair in run
// order, and the file takes the records as views into it.
func spillRun[K ReducerKey, V any](b *run[V], key K, fs spillStore, name string, encode func(K, V, []byte) []byte, pool *BufferPool) {
	buf := make([]byte, 0, int(b.bytes)+b.n*runPairSlack)
	recs := make([][]byte, 0, b.n)
	for _, c := range b.chunks {
		for i := range c {
			// A record stays a view of the array it was encoded into: if
			// buf outgrows its estimate, the earlier records keep the old
			// array, whose bytes no later append touches.
			at := len(buf)
			buf = encode(key, c[i], buf)
			recs = append(recs, buf[at:len(buf):len(buf)])
		}
	}
	n := b.n
	b.recycle(pool)
	w := fs.CreateLocal(name)
	w.AppendOwnedAll(recs)
	// Local writers cannot fail short of a double close.
	_ = w.Close()
	b.n, b.spill, b.spillBytes = n, name, int64(len(buf))
}

// readSpill decodes a spilled run of reducer key into dst, which holds
// exactly its values, and deletes the scratch file — each run is read
// exactly once. A record that does not decode to a pair of key, or a
// file of another length, is an error.
func readSpill[K ReducerKey, V any](b *run[V], key K, dst []V, fs spillStore, decode func([]byte) (K, V, error)) error {
	name := b.spill
	i := 0
	err := fs.Scan(name, func(rec []byte) error {
		k, v, err := decode(rec)
		switch {
		case err != nil:
			return fmt.Errorf("mapreduce: spilled run %s: %w", name, err)
		case k != key:
			return fmt.Errorf("mapreduce: spilled run %s: a pair keyed %v in reducer %v's run", name, k, key)
		case i == len(dst):
			return fmt.Errorf("mapreduce: spilled run %s: more than its %d pairs", name, len(dst))
		}
		dst[i] = v
		i++
		return nil
	})
	_ = fs.Delete(name) // consumed (or poisoned) either way
	b.spill = ""
	if err == nil && i < len(dst) {
		err = fmt.Errorf("mapreduce: spilled run %s: %d of its %d pairs", name, i, len(dst))
	}
	return err
}
