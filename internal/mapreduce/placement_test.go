package mapreduce

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// checkPlacement fails t unless owner gives every reducer of load
// exactly one worker of load's and keeps each worker's placed bytes
// within ⌈total/W⌉ plus the largest reducer's bytes.
func checkPlacement(t *testing.T, load [][]int64, owner []int) {
	t.Helper()
	W, nr := len(load), len(load[0])
	if len(owner) != nr {
		t.Fatalf("%d owners for %d reducers", len(owner), nr)
	}
	held := make([]int64, W)
	var total, largest int64
	for r, w := range owner {
		if w < 0 || w >= W {
			t.Fatalf("reducer %d placed on worker %d of %d", r, w, W)
		}
		var sum int64
		for u := range load {
			sum += load[u][r]
		}
		held[w] += sum
		total += sum
		largest = max(largest, sum)
	}
	room := (total+int64(W)-1)/int64(W) + largest
	for w, h := range held {
		if h > room {
			t.Errorf("worker %d holds %d B, bound ⌈%d/%d⌉ + %d = %d (table %v)", w, h, total, W, largest, room, owner)
		}
	}
}

// TestPlaceReducers: the placement table gives each reducer one worker,
// at W = 1 all of them to worker 0; a reducer goes to the worker with
// the most of its bytes, on a tie the one holding less and then the
// lower one, and one with none stays at r mod W; and a worker whose mappers produce every byte still
// leaves its peers their share, so no worker holds more than ⌈total/W⌉
// plus the largest reducer.
func TestPlaceReducers(t *testing.T) {
	for _, c := range []struct {
		name string
		load [][]int64
		want []int
	}{
		{"one worker", [][]int64{{3, 0, 9, 1}}, []int{0, 0, 0, 0}},
		{"the most bytes", [][]int64{{1, 9, 0}, {9, 1, 0}}, []int{1, 0, 0}},
		{"a tie", [][]int64{{5, 0}, {5, 0}}, []int{0, 1}},
		{"a tie of the upper two", [][]int64{{1}, {7}, {7}}, []int{1}},
		// Evenly split reducers go to the worker holding less, so they
		// alternate rather than fill worker 0.
		{"ties take turns", [][]int64{{5, 5, 5, 5, 5}, {5, 5, 5, 5, 5}}, []int{0, 1, 0, 1, 0}},
		{"ties take turns after a placed reducer", [][]int64{{9, 5, 5}, {0, 5, 5}}, []int{0, 1, 0}},
		{"no bytes", [][]int64{{0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}}, []int{0, 1, 2, 0, 1}},
		{"no bytes beside some", [][]int64{{0, 0, 0, 4}, {0, 0, 0, 0}}, []int{0, 1, 0, 0}},
		// Worker 0 emits everything: reducers 0, 1 and 2 fill it to 90 =
		// ⌈100/2⌉ + 40, and reducer 3 would lift it beyond: 3 goes to
		// worker 1.
		{"one worker's bytes, W = 2", [][]int64{{40, 30, 20, 10}, {0, 0, 0, 0}}, []int{0, 0, 0, 1}},
		// A larger margin chooses first: reducers 1–10 (margin 10 each)
		// fill worker 0 to 80 of its room of ⌈122/2⌉ + 22 = 83 before
		// reducer 0 (margin 2) is placed, so 0 goes to worker 1 with 9
		// and 10. Taken in index order, 0 would have stayed on worker 0.
		{"margin order", [][]int64{{12, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, {10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}, []int{1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1}},
	} {
		got := placeReducers(c.load)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: table %v, want %v", c.name, got, c.want)
		}
		checkPlacement(t, c.load, got)
	}

	// One worker's mappers produce every byte, at W = 2 and W = 3.
	rng := rand.New(rand.NewPCG(2013, 49))
	for _, W := range []int{2, 3} {
		for trial := 0; trial < 50; trial++ {
			nr := 1 + rng.IntN(40)
			load := make([][]int64, W)
			for w := range load {
				load[w] = make([]int64, nr)
			}
			src := rng.IntN(W)
			for r := range nr {
				load[src][r] = rng.Int64N(1000)
			}
			checkPlacement(t, load, placeReducers(load))
		}
	}
	// Claims a peer can send — a uvarint beyond int64 reads as a
	// negative weight — that overflow the sums, so that no worker has
	// room, still place every reducer on a worker.
	for _, load := range [][][]int64{
		{{0, math.MinInt64, 5}, {-(math.MaxInt64 / 2), math.MinInt64, -(math.MaxInt64 / 2)}},
	} {
		for r, w := range placeReducers(load) {
			if w < 0 || w >= len(load) {
				t.Errorf("overflowing claims %v: reducer %d placed on worker %d", load, r, w)
			}
		}
	}
	// And any matrix, of mostly one worker's bytes or not.
	for trial := 0; trial < 200; trial++ {
		W, nr := 1+rng.IntN(5), 1+rng.IntN(64)
		load := make([][]int64, W)
		for w := range load {
			load[w] = make([]int64, nr)
			for r := range load[w] {
				if rng.IntN(3) > 0 {
					load[w][r] = rng.Int64N(1 << uint(rng.IntN(20)))
				}
			}
		}
		checkPlacement(t, load, placeReducers(load))
	}
}
