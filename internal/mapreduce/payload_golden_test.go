package mapreduce

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"sync"
	"testing"
)

// payloadGoldenFile pins the exact bytes worker 0 of a fixed small
// two-worker distTestJob sends worker 1 in each of its exchanges: the
// run-exchange payload, its map report then its runs ("runs"), and the
// reduce-barrier payload ("outputs"). Any change to one of the framings
// fails here; a change made on
// purpose must raise cluster.protocolVersion with it, so a worker built
// before it is turned away at registration instead of misreading a
// peer's payload.
//
// MWSJ_WRITE_PAYLOAD_GOLDEN=1 rewrites it from the current code.
const payloadGoldenFile = "testdata/dist_payload_golden.json"

// recordingExchanger keeps a copy of each payload its worker sends
// worker 1, by exchange tag.
type recordingExchanger struct {
	Exchanger
	sent map[string]string
}

func (e *recordingExchanger) AllToAll(tag string, outgoing [][]byte) ([][]byte, error) {
	e.sent[tag] = hex.EncodeToString(outgoing[1])
	return e.Exchanger.AllToAll(tag, outgoing)
}

func TestDistPayloadGolden(t *testing.T) {
	input := make([]int, 24)
	for i := range input {
		input[i] = i * 5
	}
	hub := newChanHub(2)
	rec := &recordingExchanger{Exchanger: hub.exchanger(0), sent: map[string]string{}}
	exchangers := []Exchanger{rec, hub.exchanger(1)}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for self, ex := range exchangers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := distTestJob(Config{Name: "golden", NumReducers: 4, NumMappers: 4})
			j.Config.Dist = &DistConfig{NumWorkers: 2, Self: self, Exchanger: ex}
			_, _, errs[self] = j.Run(input)
		}()
	}
	wg.Wait()
	for self, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", self, err)
		}
	}
	got, err := json.MarshalIndent(rec.sent, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("MWSJ_WRITE_PAYLOAD_GOLDEN") != "" {
		if err := os.WriteFile(payloadGoldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(payloadGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("worker 0's payloads to worker 1 changed; raise cluster.protocolVersion with them:\n got %s\nwant %s", got, want)
	}
}
