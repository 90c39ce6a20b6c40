package mapreduce

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// wordN is a word and how many times it was seen.
type wordN struct {
	w string
	n int
}

// wordReducer is the reducer of n that word w goes to: its byte sum
// modulo n.
func wordReducer(w string, n int) int {
	sum := 0
	for i := 0; i < len(w); i++ {
		sum += int(w[i])
	}
	return sum % n
}

// wordCountJob is the canonical smoke test: count word occurrences.
// Each word is emitted to the reducer it hashes to, and each reducer
// counts the words it received.
func wordCountJob(cfg Config) *Job[string, int, wordN, string] {
	return &Job[string, int, wordN, string]{
		Config: cfg,
		Map: func(line string, emit func(int, wordN)) error {
			for _, w := range strings.Fields(line) {
				emit(wordReducer(w, cfg.NumReducers), wordN{w, 1})
			}
			return nil
		},
		Reduce: func(_ int, vs []wordN, emit func(string)) error {
			counts := map[string]int{}
			for _, v := range vs {
				counts[v.w] += v.n
			}
			for _, w := range sortedKeys(counts) {
				emit(fmt.Sprintf("%s=%d", w, counts[w]))
			}
			return nil
		},
		PairBytes: func(_ int, v wordN) int { return len(v.w) + 4 },
	}
}

func TestWordCount(t *testing.T) {
	input := []string{"a b a", "c b", "a"}
	job := wordCountJob(Config{Name: "wc", NumReducers: 4, NumMappers: 2})
	out, stats, err := job.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	want := []string{"a=3", "b=2", "c=1"}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("out = %v, want %v", out, want)
	}
	if stats.MapInputRecords != 3 {
		t.Errorf("MapInputRecords = %d, want 3", stats.MapInputRecords)
	}
	if stats.IntermediatePairs != 6 {
		t.Errorf("IntermediatePairs = %d, want 6", stats.IntermediatePairs)
	}
	if stats.IntermediateBytes != 6*5 {
		t.Errorf("IntermediateBytes = %d, want 30", stats.IntermediateBytes)
	}
	if stats.ReduceInputKeys != 3 || stats.ReduceOutputRecords != 3 {
		t.Errorf("reduce stats = %+v", stats)
	}
	var perReducer int64
	for _, n := range stats.PairsPerReducer {
		perReducer += n
	}
	if perReducer != stats.IntermediatePairs {
		t.Errorf("per-reducer pair counts sum to %d, want %d", perReducer, stats.IntermediatePairs)
	}
	if stats.MapAttempts != 2 || stats.MapFailures != 0 {
		t.Errorf("attempt stats = %+v", stats)
	}
}

// TestDeterminism: the same job run many times with high parallelism
// must produce byte-identical output ordering.
func TestDeterminism(t *testing.T) {
	var input []int
	for i := 0; i < 500; i++ {
		input = append(input, i)
	}
	job := &Job[int, int, int, [2]int]{
		Config: Config{Name: "det", NumReducers: 13, NumMappers: 9, Parallelism: 8},
		Map:    func(x int, emit func(int, int)) error { emit(x%13, x); return nil },
		Reduce: func(k int, vs []int, emit func([2]int)) error {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			emit([2]int{k, sum})
			return nil
		},
	}
	first, _, err := job.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, _, err := job.Run(input)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d differs: %v vs %v", i, got, first)
		}
	}
}

// TestValueOrderWithinKey: a reducer's values arrive in mapper-index
// order, then input order — regardless of scheduling.
func TestValueOrderWithinKey(t *testing.T) {
	input := []int{10, 11, 12, 13, 14, 15}
	job := &Job[int, int, int, []int]{
		Config: Config{Name: "order", NumReducers: 1, NumMappers: 3, Parallelism: 3},
		Map:    func(x int, emit func(int, int)) error { emit(0, x); return nil },
		Reduce: func(_ int, vs []int, emit func([]int)) error {
			emit(append([]int(nil), vs...))
			return nil
		},
	}
	out, _, err := job.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !reflect.DeepEqual(out[0], input) {
		t.Errorf("value order = %v, want %v", out, input)
	}
}

// TestRunBlocksReadsPerAttempt: a job whose mappers read their own even
// splits returns what Run returns on the same records, calls the reader
// with exactly the engine's split bounds — once more for every retried
// attempt — and surfaces reader errors and panics as task failures.
func TestRunBlocksReadsPerAttempt(t *testing.T) {
	input := []string{"a b a", "c b", "a", "d d d", "b"}
	cfg := Config{Name: "wc", NumReducers: 4, NumMappers: 3, Parallelism: 2, MaxAttempts: 2,
		FailMap: func(m, attempt int) bool { return m == 1 && attempt == 1 }}
	want, wantStats, err := wordCountJob(cfg).Run(input)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	reads := map[[2]int]int{}
	read := func(lo, hi int, yield func(string) error) error {
		mu.Lock()
		reads[[2]int{lo, hi}]++
		mu.Unlock()
		for _, line := range input[lo:hi] {
			if err := yield(line); err != nil {
				return err
			}
		}
		return nil
	}
	runEven := func(n int, read func(lo, hi int, yield func(string) error) error) ([]string, *Stats, error) {
		out, _, st, err := wordCountJob(cfg).RunBlocks(n, EvenSplits(n), read)
		return out, st, err
	}
	got, stats, err := runEven(len(input), read)
	if err != nil {
		t.Fatal(err)
	}
	stats.MapWall, stats.ReduceWall, stats.TotalWall = 0, 0, 0
	wantStats.MapWall, wantStats.ReduceWall, wantStats.TotalWall = 0, 0, 0
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("RunBlocks = %v %+v, Run = %v %+v", got, stats, want, wantStats)
	}
	if wantReads := map[[2]int]int{{0, 1}: 1, {1, 3}: 2, {3, 5}: 1}; !reflect.DeepEqual(reads, wantReads) {
		t.Errorf("reader calls = %v, want %v", reads, wantReads)
	}

	cfg.FailMap = nil
	boom := errors.New("split unreadable")
	_, _, err = runEven(len(input), func(lo, hi int, _ func(string) error) error {
		if lo == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "mapper 1") {
		t.Errorf("reader error surfaced as %v", err)
	}
	_, _, err = runEven(len(input), func(lo, hi int, _ func(string) error) error {
		panic("bad block")
	})
	if err == nil || !strings.Contains(err.Error(), "map panic: bad block") {
		t.Errorf("reader panic surfaced as %v", err)
	}
	if out, stats, err := runEven(0, nil); err != nil || len(out) != 0 || stats.MapAttempts != 0 {
		t.Errorf("empty input: %v %+v %v", out, stats, err)
	}
}

func TestConfigValidation(t *testing.T) {
	job := wordCountJob(Config{Name: "bad", NumReducers: 0})
	if _, _, err := job.Run([]string{"x"}); err == nil {
		t.Error("NumReducers=0 must fail")
	}
	missing := &Job[string, int, wordN, string]{Config: Config{NumReducers: 1}}
	if _, _, err := missing.Run([]string{"x"}); err == nil {
		t.Error("missing Map/Reduce must fail")
	}
}

func TestEmptyInput(t *testing.T) {
	job := wordCountJob(Config{Name: "empty", NumReducers: 3})
	out, stats, err := job.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || stats.IntermediatePairs != 0 || stats.MapAttempts != 0 {
		t.Errorf("empty input: out=%v stats=%+v", out, stats)
	}
}

func TestMapErrorAborts(t *testing.T) {
	job := &Job[int, int, int, int]{
		Config: Config{Name: "maperr", NumReducers: 2, NumMappers: 2},
		Map: func(x int, emit func(int, int)) error {
			if x == 3 {
				return errors.New("bad record")
			}
			emit(x%2, x)
			return nil
		},
		Reduce: func(k int, vs []int, emit func(int)) error { emit(k); return nil },
	}
	_, _, err := job.Run([]int{1, 2, 3, 4})
	if err == nil || !strings.Contains(err.Error(), "bad record") {
		t.Errorf("err = %v, want bad record", err)
	}
}

func TestReduceErrorAborts(t *testing.T) {
	job := &Job[int, int, int, int]{
		Config: Config{Name: "rederr", NumReducers: 4},
		Map:    func(x int, emit func(int, int)) error { emit(x, x); return nil },
		Reduce: func(k int, vs []int, emit func(int)) error {
			if k == 2 {
				return errors.New("reducer exploded")
			}
			emit(k)
			return nil
		},
	}
	_, _, err := job.Run([]int{1, 2, 3})
	if err == nil || !strings.Contains(err.Error(), "reducer exploded") {
		t.Errorf("err = %v", err)
	}
}

func TestPanicsBecomeErrors(t *testing.T) {
	job := &Job[int, int, int, int]{
		Config: Config{Name: "panic", NumReducers: 1},
		Map: func(x int, emit func(int, int)) error {
			if x == 1 {
				panic("map boom")
			}
			emit(x, x)
			return nil
		},
		Reduce: func(k int, vs []int, emit func(int)) error { emit(k); return nil },
	}
	if _, _, err := job.Run([]int{0, 1}); err == nil || !strings.Contains(err.Error(), "map boom") {
		t.Errorf("map panic err = %v", err)
	}
	job2 := &Job[int, int, int, int]{
		Config: Config{Name: "panic2", NumReducers: 1},
		Map:    func(x int, emit func(int, int)) error { emit(x, x); return nil },
		Reduce: func(k int, vs []int, emit func(int)) error { panic("reduce boom") },
	}
	if _, _, err := job2.Run([]int{0}); err == nil || !strings.Contains(err.Error(), "reduce boom") {
		t.Errorf("reduce panic err = %v", err)
	}
}

// TestFaultInjectionRetry: a mapper that fails twice succeeds on the
// third attempt and the job output is unaffected.
func TestFaultInjectionRetry(t *testing.T) {
	job := &Job[int, int, int, int]{
		Config: Config{
			Name: "faults", NumReducers: 2, NumMappers: 2, MaxAttempts: 3,
			FailMap: func(mapper, attempt int) bool { return mapper == 0 && attempt <= 2 },
		},
		Map: func(x int, emit func(int, int)) error { emit(x%2, x); return nil },
		Reduce: func(k int, vs []int, emit func(int)) error {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			emit(sum)
			return nil
		},
	}
	out, stats, err := job.Run([]int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(out)
	if !reflect.DeepEqual(out, []int{4, 6}) {
		t.Errorf("out = %v, want [4 6]", out)
	}
	if stats.MapFailures != 2 || stats.MapAttempts != 4 {
		t.Errorf("stats = %+v, want 2 failures over 4 attempts", stats)
	}
	// Intermediate pairs must not double-count discarded attempts.
	if stats.IntermediatePairs != 4 {
		t.Errorf("IntermediatePairs = %d, want 4", stats.IntermediatePairs)
	}
}

func TestFaultInjectionExhausted(t *testing.T) {
	job := &Job[int, int, int, int]{
		Config: Config{
			Name: "doomed", NumReducers: 1, NumMappers: 1, MaxAttempts: 2,
			FailMap: func(mapper, attempt int) bool { return true },
		},
		Map:    func(x int, emit func(int, int)) error { emit(0, x); return nil },
		Reduce: func(k int, vs []int, emit func(int)) error { emit(k); return nil },
	}
	_, _, err := job.Run([]int{1})
	if err == nil || !strings.Contains(err.Error(), "failed after 2 attempts") {
		t.Errorf("err = %v", err)
	}
}

// TestOutOfRangeKeySurfaces: a key is a reducer index, so emitting one
// outside [0, NumReducers) fails the map attempt with an error naming
// the key — negative and unsigned keys included.
func TestOutOfRangeKeySurfaces(t *testing.T) {
	for _, key := range []int{99, 2, -1} {
		job := &Job[int, int, int, int]{
			Config: Config{Name: "badkey", NumReducers: 2},
			Map:    func(x int, emit func(int, int)) error { emit(key, x); return nil },
			Reduce: func(k int, vs []int, emit func(int)) error { emit(k); return nil },
		}
		_, _, err := job.Run([]int{1})
		if want := fmt.Sprintf("key %d,", key); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("key %d: err = %v, want it to name %q", key, err, want)
		}
	}
	job := &Job[int, uint8, int, int]{
		Config: Config{Name: "badkey", NumReducers: 2},
		Map:    func(x int, emit func(uint8, int)) error { emit(255, x); return nil },
		Reduce: func(k uint8, vs []int, emit func(int)) error { emit(int(k)); return nil },
	}
	if _, _, err := job.Run([]int{1}); err == nil || !strings.Contains(err.Error(), "key 255,") {
		t.Errorf("uint8 key 255: err = %v", err)
	}
}

func TestStatsAddAndSkew(t *testing.T) {
	a := &Stats{IntermediatePairs: 10, PairsPerReducer: []int64{8, 2}}
	b := &Stats{IntermediatePairs: 6, PairsPerReducer: []int64{2, 4}, ReduceOutputRecords: 3}
	a.Add(b)
	if a.IntermediatePairs != 16 || a.ReduceOutputRecords != 3 {
		t.Errorf("Add result = %+v", a)
	}
	if !reflect.DeepEqual(a.PairsPerReducer, []int64{10, 6}) {
		t.Errorf("PairsPerReducer = %v", a.PairsPerReducer)
	}
	// skew: max=10, mean=8 → 1.25
	if got := a.MaxReducerSkew(); got != 1.25 {
		t.Errorf("skew = %v, want 1.25", got)
	}
	empty := &Stats{}
	if empty.MaxReducerSkew() != 0 {
		t.Error("empty skew must be 0")
	}
	var c Stats
	c.Add(a)
	if !reflect.DeepEqual(c.PairsPerReducer, a.PairsPerReducer) {
		t.Error("Add into empty stats must copy per-reducer loads")
	}
}

type cellLike int32 // named integer type, like grid.CellID

func TestIdentityPartition(t *testing.T) {
	if IdentityPartition(cellLike(6), 10) != 6 {
		t.Error("identity partition of named int")
	}
	if IdentityPartition(uint8(3), 10) != 3 {
		t.Error("identity partition of uint")
	}
}

func TestRunTasksSequentialFallback(t *testing.T) {
	var order []int
	runTasks(1, 4, func(i int) { order = append(order, i) })
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Errorf("sequential order = %v", order)
	}
	runTasks(8, 0, func(i int) { t.Error("no tasks expected") })
}

func BenchmarkShuffleThroughput(b *testing.B) {
	input := make([]int, 10000)
	for i := range input {
		input[i] = i
	}
	job := &Job[int, int, int, int]{
		Config: Config{Name: "bench", NumReducers: 64, NumMappers: 4},
		Map:    func(x int, emit func(int, int)) error { emit(x%64, x); emit((x+7)%64, x); return nil },
		Reduce: func(k int, vs []int, emit func(int)) error {
			emit(len(vs))
			return nil
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := job.Run(input); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunBlocksCallerSplits: splits the caller cuts — uneven, some empty
// — deliver each reducer its values in input order, as even splits do,
// so the outputs are Run's; ends marks where each reducer's outputs
// end; and bounds that are not nm+1 ascending ones from 0 to n fail the
// job before any mapper runs. On two workers, any owner table the cut
// names gives the in-process outputs, and one that is not a worker of
// two for each of the five reducers fails the job before any mapper runs.
func TestRunBlocksCallerSplits(t *testing.T) {
	input := make([]int, 100)
	for i := range input {
		input[i] = i * 7
	}
	read := func(lo, hi int, yield func(int) error) error {
		for _, v := range input[lo:hi] {
			if err := yield(v); err != nil {
				return err
			}
		}
		return nil
	}
	cfg := Config{Name: "blocks", NumReducers: 5, NumMappers: 4, Parallelism: 2}
	want, _, err := distTestJob(cfg).Run(input)
	if err != nil {
		t.Fatal(err)
	}
	uneven := func(owner []int) func(int, int) Cut {
		return func(int, int) Cut { return Cut{Bounds: []int{0, 0, 37, 37, 100}, Owner: owner} }
	}
	got, ends, _, err := distTestJob(cfg).RunBlocks(len(input), uneven(nil), read)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("uneven splits: outputs %q, even ones %q", got, want)
	}
	// distTestJob's reducers emit one output each, and all five get values.
	if wantEnds := []int{1, 2, 3, 4, 5}; !slices.Equal(ends, wantEnds) {
		t.Errorf("ends %v, want %v", ends, wantEnds)
	}
	for _, bounds := range [][]int{{0, 37, 100}, {0, 50, 40, 60, 100}, {1, 2, 3, 4, 100}, {0, 10, 20, 30, 99}} {
		mapped := false
		j := distTestJob(cfg)
		j.Map = func(int, func(int, int)) error { mapped = true; return nil }
		if _, _, _, err := j.RunBlocks(len(input), func(int, int) Cut { return Cut{Bounds: bounds} }, read); err == nil || mapped {
			t.Errorf("bounds %v: err = %v, mapped = %v", bounds, err, mapped)
		}
	}
	for _, c := range []struct {
		owner []int
		want  string
	}{
		{[]int{1, 1, 0, 0, 1}, ""},
		{[]int{0, 0, 0, 0, 0}, ""},
		{[]int{0, 1, 0, 1}, "4 reducer owners for 5 reducers"},
		{[]int{0, 1, 2, 0, 1}, "reducer 2 owned by worker 2, of 2"},
		{[]int{0, -1, 0, 0, 1}, "reducer 1 owned by worker -1, of 2"},
	} {
		hub := newChanHub(2)
		var mapped atomic.Bool
		outs := make([][]string, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for self := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				j := distTestJob(cfg)
				j.Config.Dist = &DistConfig{NumWorkers: 2, Self: self, Exchanger: hub.exchanger(self)}
				mapOne := j.Map
				j.Map = func(in int, emit func(int, int)) error { mapped.Store(true); return mapOne(in, emit) }
				outs[self], _, _, errs[self] = j.RunBlocks(len(input), uneven(c.owner), read)
			}()
		}
		wg.Wait()
		for self, err := range errs {
			switch {
			case c.want == "" && (err != nil || !slices.Equal(outs[self], want)):
				t.Errorf("owners %v: worker %d: %q, %v; want %q", c.owner, self, outs[self], err, want)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want) || mapped.Load()):
				t.Errorf("owners %v: worker %d: err = %v, mapped = %v; want %q before the map", c.owner, self, err, mapped.Load(), c.want)
			}
		}
	}
}
