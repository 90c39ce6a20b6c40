package dataset

import (
	"reflect"
	"sort"
	"testing"
)

func TestZipfClusteredDeterministic(t *testing.T) {
	p := SkewedDefaults(500)
	a, err := ZipfClustered(p, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ZipfClustered(p, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different rectangles")
	}
	c, err := ZipfClustered(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical rectangles")
	}
}

func TestZipfClusteredInBounds(t *testing.T) {
	p := SkewedDefaults(2000)
	rects, err := ZipfClustered(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rects) != p.N {
		t.Fatalf("got %d rects, want %d", len(rects), p.N)
	}
	space := p.withDefaults().Space
	for _, r := range rects {
		if r.MinX() < 0 || r.MaxX() > space || r.MinY() < 0 || r.MaxY() > space {
			t.Fatalf("rect %v escapes [0,%g]²", r, space)
		}
		if r.L < 0 || r.B < 0 {
			t.Fatalf("rect %v has negative dimensions", r)
		}
	}
}

// TestZipfClusteredIsSkewed checks the generator actually produces the
// skew the adaptive partitioning exists for: bucketing start-points
// into an 8×8 uniform grid, the hottest bucket must dwarf the median
// one.
func TestZipfClusteredIsSkewed(t *testing.T) {
	p := SkewedDefaults(5000)
	rects, err := ZipfClustered(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	space := p.withDefaults().Space
	counts := make([]int, 64)
	for _, r := range rects {
		col := int(r.X / space * 8)
		row := int(r.Y / space * 8)
		if col > 7 {
			col = 7
		}
		if row > 7 {
			row = 7
		}
		counts[row*8+col]++
	}
	sort.Ints(counts)
	med := counts[len(counts)/2]
	if med < 1 {
		med = 1
	}
	if ratio := float64(counts[len(counts)-1]) / float64(med); ratio < 5 {
		t.Errorf("max/median bucket load %.1f; the workload is not skewed enough", ratio)
	}
}

func TestZipfClusteredErrors(t *testing.T) {
	if _, err := ZipfClustered(SkewedParams{N: -1}, 0); err == nil {
		t.Error("negative N: want error")
	}
	rects, err := ZipfClustered(SkewedParams{N: 0}, 0)
	if err != nil || len(rects) != 0 {
		t.Errorf("N=0: got %d rects, err %v", len(rects), err)
	}
}
