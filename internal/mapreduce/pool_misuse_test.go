package mapreduce

// Misuse battery for BufferPool: the pool must stay safe when callers
// break the lifecycle rules — putting the same buffer twice, or feeding
// one pool to a heterogeneous sequence of jobs — because a recycled run
// that aliases another live run corrupts shuffle output silently.

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

// TestPoolDoublePutNoAlias: putting the same buffer twice must retain
// it once — the second Get falls back to a fresh allocation instead of
// handing out an alias of the first.
func TestPoolDoublePutNoAlias(t *testing.T) {
	p := NewBufferPool()
	buf := make([]int64, 0, 64)
	putBuf(&p.chunks, buf)
	putBuf(&p.chunks, buf)
	putBuf(&p.chunks, buf[:0]) // reslicing does not change identity either

	a := getBuf[int64](&p.chunks, 8)
	b := getBuf[int64](&p.chunks, 8)
	if unsafe.SliceData(a) != unsafe.SliceData(buf) {
		t.Fatal("first Get did not return the recycled buffer")
	}
	if unsafe.SliceData(b) == unsafe.SliceData(a) {
		t.Fatal("double-put leaked an alias: two Gets share one backing array")
	}

	// Writes through one must not show through the other.
	a = append(a, 1)
	b = append(b, 2)
	if a[0] != 1 {
		t.Fatalf("aliased append corrupted recycled run: %v", a[0])
	}

	// Once the buffer is back out, putting it again is legitimate reuse.
	putBuf(&p.chunks, a)
	if c := getBuf[int64](&p.chunks, 8); unsafe.SliceData(c) != unsafe.SliceData(a) {
		t.Error("re-put after Get was dropped — duplicate tracking leaked")
	}
}

// TestPoolDoublePutAllKinds covers every free list, not just chunks.
func TestPoolDoublePutAllKinds(t *testing.T) {
	p := NewBufferPool()
	for name, f := range map[string]*freeList{"chunks": &p.chunks, "vals": &p.vals} {
		buf := make([]int64, 16)
		putBuf(f, buf)
		putBuf(f, buf)
		getBufLen[int64](f, 16)
		if got := getBufLen[int64](f, 16); unsafe.SliceData(got) == unsafe.SliceData(buf) {
			t.Errorf("%s: double-put retained twice", name)
		}
	}
}

// poisonPool double-puts buffers of every kind a shuffle touches, at
// several capacities, simulating a buggy caller that recycled its runs
// twice before handing the pool to a job.
func poisonPool(p *BufferPool) {
	for _, capn := range []int{8, 64, 512} {
		for _, f := range []*freeList{&p.chunks, &p.vals} {
			buf := make([]int64, 0, capn)
			putBuf(f, buf)
			putBuf(f, buf)
		}
	}
}

// TestPoolDoublePutJobEquivalence: a job running on a pool poisoned by
// double-puts must still produce bit-identical output and Stats — the
// scenario a leaked alias would corrupt nondeterministically.
func TestPoolDoublePutJobEquivalence(t *testing.T) {
	input := spillInput(300)
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			base := Config{Name: "poisoned", NumReducers: 5, NumMappers: 4, Parallelism: par}
			wantOut, wantSt, err := spillTestJob(base).Run(input)
			if err != nil {
				t.Fatal(err)
			}
			pooled := base
			pooled.Pool = NewBufferPool()
			poisonPool(pooled.Pool)
			for round := 0; round < 3; round++ {
				out, st, err := spillTestJob(pooled).Run(input)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(out, wantOut) {
					t.Errorf("round %d: output differs on poisoned pool", round)
				}
				norm, wantNorm := *st, *wantSt
				zeroWalls(&norm)
				zeroWalls(&wantNorm)
				if !reflect.DeepEqual(norm, wantNorm) {
					t.Errorf("round %d: Stats differ on poisoned pool:\n got  %+v\n want %+v", round, norm, wantNorm)
				}
			}
		})
	}
}

// TestPoolCrossJobReuse: one pool serving jobs of different K/V
// instantiations back to back — the int64 spill job and the string
// word-count job — must keep every run bit-identical to clean
// references. Mismatched recycled buffers are dropped, matching ones
// are reused, and neither direction may corrupt the other's runs.
func TestPoolCrossJobReuse(t *testing.T) {
	intInput := spillInput(200)
	wcInput := wordInput()
	intBase := Config{Name: "ints", NumReducers: 5, NumMappers: 4, Parallelism: 4}
	wcBase := Config{Name: "words", NumReducers: 3, NumMappers: 3, Parallelism: 4}

	wantInt, _, err := spillTestJob(intBase).Run(intInput)
	if err != nil {
		t.Fatal(err)
	}
	wantWC, _, err := combineWordCountJob(wcBase).Run(wcInput)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewBufferPool()
	poisonPool(pool) // cross-job reuse on top of prior misuse
	intCfg, wcCfg := intBase, wcBase
	intCfg.Pool, wcCfg.Pool = pool, pool
	for round := 0; round < 3; round++ {
		gotInt, _, err := spillTestJob(intCfg).Run(intInput)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotInt, wantInt) {
			t.Errorf("round %d: int job corrupted by shared pool", round)
		}
		gotWC, _, err := combineWordCountJob(wcCfg).Run(wcInput)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotWC, wantWC) {
			t.Errorf("round %d: word-count job corrupted by shared pool", round)
		}
	}
}
