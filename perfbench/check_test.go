package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

func TestLineMismatches(t *testing.T) {
	want := []byte("a\nb\nc\n")
	for _, c := range []struct {
		name string
		got  string
		bad  int
	}{
		{"identical", "a\nb\nc\n", 0},
		{"one line changed", "a\nB\nc\n", 1},
		{"short stream", "a\n", 2},
		{"empty stream", "", 3},
		{"extra line", "a\nb\nc\nd\n", 1},
		{"missing final newline", "a\nb\nc", 1},
	} {
		if got := lineMismatches([]byte(c.got), want); got != c.bad {
			t.Errorf("%s: %d mismatches, want %d", c.name, got, c.bad)
		}
	}
}

func TestReferenceMismatches(t *testing.T) {
	out := []byte("x\ny\n")
	pinned := reference{pinned: sha256Hex(out)}
	if got := pinned.mismatches(out, 2); got != 0 {
		t.Errorf("matching pinned hash: %d failures", got)
	}
	// A pinned hash cannot say which items differ, so all of them fail.
	if got := pinned.mismatches([]byte("x\nz\n"), 2); got != 2 {
		t.Errorf("pinned hash mismatch: %d failures, want 2", got)
	}
	seq := reference{want: out}
	if got := seq.mismatches([]byte("x\nz\n"), 2); got != 1 {
		t.Errorf("sequential reference: %d failures, want 1", got)
	}
}

func TestTallyCounts(t *testing.T) {
	var ty tally
	ty.add(10, 0, "")
	ty.add(5, 2, "two items differ")
	ty.add(0, 1, "pinned hash differs")
	if a, f := ty.counts(); a != 15 || f != 3 {
		t.Errorf("counts = %d attempted, %d failed; want 15, 3", a, f)
	}
}

// TestBenchmarkJSONMatchesProgram pins the metric and workload names the
// program reports to the ones BENCHMARK.json declares.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads: BENCHMARK.json %v, program %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("workloads: BENCHMARK.json %v, program %v", names, want)
		}
	}
	check := func(set string, declared []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program reports %d", set, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", set, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer())
}
