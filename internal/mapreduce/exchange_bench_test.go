package mapreduce

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// exchangeRecordBytes is the width of BenchmarkDistExchange's values:
// a spatial item record's.
const exchangeRecordBytes = 38

type exchangeRecord [exchangeRecordBytes]byte

// BenchmarkDistExchange times one W = 2 job over a chanHub whose values
// and outputs are 38-byte records: 100,000 pairs, about half of them
// shipped in the run exchange, and every value emitted again as an
// output, so the reduce barrier gathers as many records.
func BenchmarkDistExchange(b *testing.B) {
	const n, nr, nm = 100_000, 8, 4
	input := make([]int, n)
	for i := range input {
		input[i] = i
	}
	codec := Codec[exchangeRecord]{
		Size:   func(exchangeRecord) int { return exchangeRecordBytes },
		Append: func(buf []byte, v exchangeRecord) []byte { return append(buf, v[:]...) },
		Read: func(buf []byte) (exchangeRecord, []byte, error) {
			var v exchangeRecord
			if len(buf) < exchangeRecordBytes {
				return v, nil, fmt.Errorf("a record cut short at %d bytes", len(buf))
			}
			copy(v[:], buf)
			return v, buf[exchangeRecordBytes:], nil
		},
	}
	mk := func(pool *BufferPool) *Job[int, int, exchangeRecord, exchangeRecord] {
		return &Job[int, int, exchangeRecord, exchangeRecord]{
			Config: Config{Name: "exchange", NumReducers: nr, NumMappers: nm, Parallelism: 2, Pool: pool},
			Map: func(in int, emit func(int, exchangeRecord)) error {
				var v exchangeRecord
				binary.LittleEndian.PutUint64(v[:], uint64(in))
				emit(in%nr, v)
				return nil
			},
			Reduce: func(_ int, vs []exchangeRecord, emit func(exchangeRecord)) error {
				for _, v := range vs {
					emit(v)
				}
				return nil
			},
			PairBytes: func(int, exchangeRecord) int { return 4 + exchangeRecordBytes },
			Values:    codec,
			Outputs:   codec,
		}
	}
	pool := NewBufferPool()
	hub := newChanHub(2)
	hub.pool = pool
	exchange := func() {
		var wg sync.WaitGroup
		for self := 0; self < 2; self++ {
			wg.Add(1)
			go func(self int) {
				defer wg.Done()
				ex := hub.exchanger(self)
				defer ex.Recycle()
				j := mk(pool)
				j.Config.Dist = &DistConfig{NumWorkers: 2, Self: self, Exchanger: ex}
				if out, _, err := j.Run(input); err != nil || len(out) != n {
					b.Errorf("worker %d: %d outputs, %v", self, len(out), err)
				}
			}(self)
		}
		wg.Wait()
	}
	exchange()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		exchange()
	}
}
