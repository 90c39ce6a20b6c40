package cluster

import (
	"container/list"
	"sync"
	"unsafe"

	"mwsjoin/internal/dfs"
	"mwsjoin/internal/spatial"
)

// maxResidentBytes caps the relations one worker keeps between
// sessions: their items and the planes they are staged from, 78 bytes
// per rectangle, so 256 MiB holds some 3.4 million rectangles — 17
// relations of the paper-scale unit of 200,000. Beyond it the least
// recently used relation goes, and a later start that names it has it
// shipped again (need).
const maxResidentBytes = 256 << 20

// residentCap is the cap a new worker takes; the over-cap test lowers it.
var residentCap int64 = maxResidentBytes

// residentItemBytes is what one rectangle of a resident relation holds
// on to: its Item and its row of the staged planes.
const residentItemBytes = int64(unsafe.Sizeof(spatial.Item{})) + dfs.MBBRecordBytes

// residentSet is a worker's relations by content digest, each
// summarised and staged once, on arrival (unpackRelation), and shared
// by every session that names it. A session holds the relations it
// resolved, so evicting one only means the next session that names it
// asks for it again.
type residentSet struct {
	mu       sync.Mutex
	capBytes int64
	bytes    int64
	lru      *list.List // of *residentRel, most recently used first
	byDigest map[string]*list.Element
}

type residentRel struct {
	digest string
	rel    spatial.Relation
	bytes  int64
}

func newResidentSet(capBytes int64) *residentSet {
	return &residentSet{capBytes: capBytes, lru: list.New(), byDigest: map[string]*list.Element{}}
}

// get returns the relation with the digest, if the worker keeps it.
func (r *residentSet) get(digest string) (spatial.Relation, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byDigest[digest]
	if !ok {
		return spatial.Relation{}, false
	}
	r.lru.MoveToFront(e)
	return e.Value.(*residentRel).rel, true
}

// put keeps a relation whose contents were checked against digest,
// evicting the least recently used ones beyond the cap. A relation
// larger than the whole cap is not kept.
func (r *residentSet) put(digest string, rel spatial.Relation) {
	size := int64(len(rel.Items)) * residentItemBytes
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byDigest[digest]; ok || size > r.capBytes {
		return
	}
	r.byDigest[digest] = r.lru.PushFront(&residentRel{digest: digest, rel: rel, bytes: size})
	r.bytes += size
	for r.bytes > r.capBytes {
		old := r.lru.Remove(r.lru.Back()).(*residentRel)
		delete(r.byDigest, old.digest)
		r.bytes -= old.bytes
	}
}

// len reports how many relations are kept.
func (r *residentSet) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}
