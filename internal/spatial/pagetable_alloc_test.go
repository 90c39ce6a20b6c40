package spatial

import (
	"runtime"
	"testing"

	"mwsjoin/internal/mapreduce"
)

// TestPartialStoreKeepsPageTable: a partial store's page table is a
// working set of its pool, so a warm store's take/release cycle — 200
// pages, the table grown well past its first size — allocates no table:
// released, the store hands its table back and points at the one shared
// empty table, and its next page takes the kept table again. A fresh
// store on the warm pool fills as many pages allocating nothing beyond
// itself. Cold, the cycle grows a table.
func TestPartialStoreKeepsPageTable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	const pages = 200
	pool := mapreduce.NewBufferPool()
	l := newPartialLayout([]bool{true, false})
	fill := func(s *partialStore) {
		w := s.writer()
		for range pages {
			w.take(int(s.perPage))
		}
	}
	s := newPartialStore(l, pool)
	cycle := func() {
		fill(s)
		s.release()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle()
	runtime.ReadMemStats(&after)
	cold := after.TotalAlloc - before.TotalAlloc - pages*mapreduce.PageBytes
	if s.pages.Load() != &noPages {
		t.Fatal("a released store does not point at the shared empty table")
	}
	warm := testing.AllocsPerRun(20, cycle)
	fresh := testing.AllocsPerRun(20, func() {
		st := newPartialStore(l, pool)
		fill(st)
		st.release()
	})
	t.Logf("a %d-page cycle: cold %d B beside its pages; warm %.0f allocations, a fresh store's %.0f", pages, cold, warm, fresh)
	if cold == 0 {
		t.Fatal("the cold cycle allocated no table; the check is vacuous")
	}
	if warm != 0 {
		t.Errorf("a warm store's take/release cycle made %.0f allocations, want none", warm)
	}
	if fresh > 1 {
		t.Errorf("a fresh store on a warm pool made %.0f allocations filling %d pages, want only the store itself", fresh, pages)
	}
}
