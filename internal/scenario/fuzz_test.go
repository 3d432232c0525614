package scenario

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/sweep"
	"repro/internal/work"
)

// FuzzLoadBatch guards the two places a batch is validated: LoadBatch
// (CLI and sweepd input) and the work-registry decoder (distributed units
// and store replay). Nothing re-validates a batch at run time, so for any
// input LoadBatch must not panic, every batch it accepts must pass
// Validate, and the accepted batch's wire form must decode back to a
// batch with the same content hash.
//
// The seeds (the example batch and the TestBatchValidate rejects) run
// under plain `go test`; explore further with
//
//	go test ./internal/scenario -run '^$' -fuzz FuzzLoadBatch -fuzztime 30s
func FuzzLoadBatch(f *testing.F) {
	example, err := os.ReadFile(fixturePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	for _, c := range batchValidateCases {
		f.Add([]byte(c.js))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := LoadBatch(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("LoadBatch accepted a batch that fails Validate: %v", err)
		}
		want, err := b.Hash()
		if err != nil {
			t.Fatal(err)
		}
		payload, err := b.MarshalRange(sweep.Range{Lo: 0, Hi: b.Len()})
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := work.Unmarshal(JournalKind, payload)
		if err != nil {
			t.Fatalf("wire form of an accepted batch does not decode: %v\npayload: %s", err, payload)
		}
		got, err := decoded.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("wire round trip changed the batch hash: %s -> %s\npayload: %s", want, got, payload)
		}
	})
}
