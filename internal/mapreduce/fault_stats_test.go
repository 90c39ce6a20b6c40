package mapreduce

import (
	"fmt"
	"reflect"
	"testing"
)

// combineWordCountJob is wordCountJob plus a combiner that sums each
// word's counts within a run, so the combine counters and
// combiner-reduced IntermediateBytes are live — the counters the
// fault-accounting sweep must keep honest.
func combineWordCountJob(cfg Config) *Job[string, int, wordN, string] {
	j := wordCountJob(cfg)
	j.Combine = func(_ int, vs []wordN) []wordN {
		// Fold each word into its first occurrence, in place: the
		// output never overtakes the input it reads.
		out := vs[:0]
	next:
		for _, v := range vs {
			for i := range out {
				if out[i].w == v.w {
					out[i].n += v.n
					continue next
				}
			}
			out = append(out, v)
		}
		return out
	}
	return j
}

func wordInput() []string {
	var input []string
	for i := 0; i < 40; i++ {
		input = append(input, fmt.Sprintf("w%d w%d w%d common", i%7, i%11, i%13))
	}
	return input
}

// zeroWalls clears the only Stats fields allowed to differ between two
// runs of the same deterministic job: measured wall times.
func zeroWalls(st *Stats) {
	st.MapWall, st.ReduceWall, st.TotalWall = 0, 0, 0
}

// TestFaultInjectionStatsBitEqual: a run whose every task fails
// MaxAttempts−1 times must report bit-identical Stats to a clean run,
// except for the attempt/failure counters (which must equal exactly
// their documented values) and wall times. In particular the discarded
// attempts' Combine work must not leak into
// CombineInputPairs/CombineOutputPairs/IntermediateBytes.
func TestFaultInjectionStatsBitEqual(t *testing.T) {
	input := wordInput()
	const maxAttempts = 3
	for _, par := range []int{1, 2, 8} {
		base := Config{Name: "acct", NumReducers: 5, NumMappers: 4,
			Parallelism: par, MaxAttempts: maxAttempts}

		cleanOut, clean, err := combineWordCountJob(base).Run(input)
		if err != nil {
			t.Fatal(err)
		}

		faulty := base
		faulty.FailMap = func(_, attempt int) bool { return attempt < maxAttempts }
		faulty.FailReduce = func(_, attempt int) bool { return attempt < maxAttempts }
		out, st, err := combineWordCountJob(faulty).Run(input)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}

		if !reflect.DeepEqual(out, cleanOut) {
			t.Errorf("par=%d: output differs under fault injection", par)
		}
		// Every map task and every non-empty reduce task made exactly
		// MaxAttempts attempts, failing all but the last.
		if st.MapAttempts != maxAttempts*clean.MapAttempts ||
			st.MapFailures != (maxAttempts-1)*clean.MapAttempts {
			t.Errorf("par=%d: map attempts/failures = %d/%d, want %d/%d", par,
				st.MapAttempts, st.MapFailures,
				maxAttempts*clean.MapAttempts, (maxAttempts-1)*clean.MapAttempts)
		}
		if st.ReduceAttempts != maxAttempts*clean.ReduceAttempts ||
			st.ReduceFailures != (maxAttempts-1)*clean.ReduceAttempts {
			t.Errorf("par=%d: reduce attempts/failures = %d/%d, want %d/%d", par,
				st.ReduceAttempts, st.ReduceFailures,
				maxAttempts*clean.ReduceAttempts, (maxAttempts-1)*clean.ReduceAttempts)
		}
		// With the documented deltas normalised away, the structs must
		// be bit-equal — any other difference is an accounting leak from
		// a discarded attempt.
		norm, cleanNorm := *st, *clean
		zeroWalls(&norm)
		zeroWalls(&cleanNorm)
		norm.MapAttempts, norm.MapFailures = cleanNorm.MapAttempts, cleanNorm.MapFailures
		norm.ReduceAttempts, norm.ReduceFailures = cleanNorm.ReduceAttempts, cleanNorm.ReduceFailures
		if !reflect.DeepEqual(norm, cleanNorm) {
			t.Errorf("par=%d: Stats leak under fault injection:\n faulty %+v\n clean  %+v", par, norm, cleanNorm)
		}
	}
}
