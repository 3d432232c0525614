package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Batch is the multi-scenario JSON schema: a top-level "scenarios" array of
// ordinary scenario configs, run concurrently with per-scenario isolation
// through the work driver (work.Run streams the result lines, work.Collect
// buffers them for RenderBatchDoc).
//
//	{
//	  "scenarios": [
//	    {"name": "small", "l1_kb": 16, "l2_kb": 256, "workload": "tpcc"},
//	    {"name": "large", "l1_kb": 64, "l2_kb": 4096, "workload": "average"}
//	  ]
//	}
type Batch struct {
	Scenarios []Config `json:"scenarios"`
}

// Validate checks every member config and requires unique, non-empty names
// (results are keyed by name downstream).
func (b Batch) Validate() error {
	if len(b.Scenarios) == 0 {
		return fmt.Errorf("scenario: batch has no scenarios")
	}
	seen := make(map[string]bool, len(b.Scenarios))
	for i, c := range b.Scenarios {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("scenario: batch entry %d: %w", i, err)
		}
		if seen[c.Name] {
			return fmt.Errorf("scenario: duplicate scenario name %q", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// withDefaults fills optional fields of every member.
func (b Batch) withDefaults() Batch {
	out := Batch{Scenarios: make([]Config, len(b.Scenarios))}
	for i, c := range b.Scenarios {
		out.Scenarios[i] = c.withDefaults()
	}
	return out
}

// LoadBatch parses a multi-scenario JSON batch, rejecting unknown fields.
func LoadBatch(r io.Reader) (Batch, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var b Batch
	if err := dec.Decode(&b); err != nil {
		return Batch{}, fmt.Errorf("scenario: %w", err)
	}
	if err := b.Validate(); err != nil {
		return Batch{}, err
	}
	return b.withDefaults(), nil
}

// IsBatch reports whether the JSON document carries a top-level "scenarios"
// key (a batch) rather than a single scenario config.
func IsBatch(data []byte) bool {
	var probe struct {
		Scenarios json.RawMessage `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return false
	}
	return probe.Scenarios != nil
}

// NDJSONLine renders one result as a single compact JSON line (no trailing
// newline) — the unit of the batch streaming format. The field content is
// identical to the result's entry in the buffered document (RenderBatchDoc);
// only the framing (one object per line instead of a "scenarios" array)
// differs.
func (r Result) NDJSONLine() ([]byte, error) {
	return json.Marshal(r)
}

// RenderBatchDoc reassembles a batch's NDJSON result lines (work.Collect's
// output, in input order) into the buffered {"scenarios": [...]} document,
// with an optional "frontier" field when a grid run computed one. The
// result is two-space indented and byte-identical to marshalling the
// results as a {"scenarios": [...]} struct with json.MarshalIndent:
// MarshalIndent is Marshal followed by Indent, and each line is already
// the compact marshal of its result.
func RenderBatchDoc(lines [][]byte, frontier []byte) (string, error) {
	var compact bytes.Buffer
	compact.WriteString(`{"scenarios":[`)
	for i, line := range lines {
		if i > 0 {
			compact.WriteByte(',')
		}
		compact.Write(line)
	}
	compact.WriteString(`]`)
	if frontier != nil {
		compact.WriteString(`,"frontier":`)
		compact.Write(frontier)
	}
	compact.WriteString(`}`)
	var out bytes.Buffer
	if err := json.Indent(&out, compact.Bytes(), "", "  "); err != nil {
		return "", err
	}
	return out.String(), nil
}
