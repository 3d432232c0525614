package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mk(id, parent int, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		mk(1, 0, 0, 100),
		mk(2, 1, 10, 30), // sequential children
		mk(3, 1, 40, 60),
		mk(4, 3, 45, 50), // grandchild: counts against 3, not 1
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 60, 2: 20, 3: 15, 4: 5} {
		if self[id] != want {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	// Two workers inside one pass: their items overlap in time, and the
	// parent's self time is only the part no item covers.
	spans := []span{
		mk(1, 0, 0, 100),
		mk(2, 1, 10, 50),
		mk(3, 1, 20, 70),
		mk(4, 1, 60, 65), // inside the union already
	}
	if got := selfTimes(spans)[1]; got != 40 {
		t.Errorf("self = %v, want 40 (100 minus the union [10,70))", got)
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	spans := []span{
		mk(1, 0, 10, 50),
		mk(2, 1, 0, 20),  // starts before the parent
		mk(3, 1, 40, 90), // ends after it
	}
	if got := selfTimes(spans)[1]; got != 20 {
		t.Errorf("self = %v, want 20", got)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, "")
	tr.end(id)
	tr.add("y", id, "", time.Now(), time.Now())
	if id != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded something")
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := newTracer()
	p := tr.begin("parent", 0, "req")
	c := tr.begin("child", p, "req")
	tr.end(c)
	open := tr.begin("open", 0, "")
	tr.end(p)
	now := time.Now()
	tr.add("added", p, "req", now.Add(-time.Millisecond), now)
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("snapshot has %d spans, want 3 closed ones (span %d is still open)", len(spans), open)
	}
	if spans[1].Parent != p || spans[1].Name != "child" || spans[1].dur() < 0 {
		t.Errorf("child span = %+v", spans[1])
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path, runRecord{Workload: "w"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Record runRecord `json:"record"`
		Spans  []struct {
			Name   string `json:"name"`
			SelfNS int64  `json:"self_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Record.Workload != "w" || len(doc.Spans) != 3 || doc.Spans[0].Name != "parent" {
		t.Errorf("written document = %+v", doc)
	}
}

func TestSelfByNameAndScaled(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "a", Start: 0, End: 2 * time.Millisecond},
		{ID: 2, Name: "b", Start: 0, End: time.Millisecond},
		{ID: 3, Name: "a", Start: 0, End: 4 * time.Millisecond},
	}
	got := scaled(selfByName(spans, selfTimes(spans), "a"), ms)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("self times of a = %v, want [2 4]", got)
	}
}
