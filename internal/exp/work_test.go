package exp

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sweep"
	"repro/internal/work"
)

// TestNewBatchResolvesRegistry pins construction: unknown IDs fail, known
// ones resolve in input order.
func TestNewBatchResolvesRegistry(t *testing.T) {
	if _, err := NewBatch([]string{"fig1", "no-such-artifact"}, nil); err == nil ||
		!strings.Contains(err.Error(), "no-such-artifact") {
		t.Fatalf("unknown id must fail, got %v", err)
	}
	if _, err := NewBatch(nil, nil); err == nil {
		t.Fatal("empty id list must fail")
	}
	b, err := NewBatch([]string{"fig2", "fig1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 || b.Kind() != WorkKind {
		t.Fatalf("batch = %+v", b)
	}
	if ids := b.IDs(); ids[0] != "fig2" || ids[1] != "fig1" {
		t.Fatalf("ids = %v, want input order preserved", ids)
	}
}

// TestWorkBatchHashPinsIDs checks the content hash keys on the exact ID
// sequence — the resume-refusal property.
func TestWorkBatchHashPinsIDs(t *testing.T) {
	hash := func(ids ...string) string {
		t.Helper()
		b, err := NewBatch(ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		h, err := b.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if hash("fig1", "fig2") != hash("fig1", "fig2") {
		t.Error("equal selections must hash identically")
	}
	if hash("fig1", "fig2") == hash("fig2", "fig1") {
		t.Error("reordered selections must hash differently")
	}
	if hash("fig1") == hash("fig1", "fig2") {
		t.Error("different selections must hash differently")
	}
}

// TestWorkBatchHashPinsEnvScale checks the hash also covers the
// environment knobs that change result bytes: resuming the same IDs at a
// different simulation scale must look like a different batch.
func TestWorkBatchHashPinsEnvScale(t *testing.T) {
	hash := func(env *Env) string {
		t.Helper()
		b, err := NewBatch([]string{"fig1"}, env)
		if err != nil {
			t.Fatal(err)
		}
		h, err := b.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	full, quick := NewEnv(), NewQuickEnv()
	if quick.Accesses >= full.Accesses {
		t.Error("production env should simulate more accesses than quick env")
	}
	if hash(full) == hash(quick) {
		t.Error("different Accesses must hash differently")
	}
	reseeded := NewEnv()
	reseeded.Seed = 99
	if hash(full) == hash(reseeded) {
		t.Error("different Seed must hash differently")
	}
	if hash(NewEnv()) != hash(NewEnv()) {
		t.Error("equal environments must hash identically")
	}
}

// TestWorkBatchWireRoundTrip checks MarshalRange → registry Unmarshal
// rebuilds the sub-batch the unit's range describes.
func TestWorkBatchWireRoundTrip(t *testing.T) {
	b, err := NewBatch([]string{"fig1", "fig2", "tab-l1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := b.MarshalRange(sweep.Range{Lo: 1, Hi: 3})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := work.Unmarshal(WorkKind, payload)
	if err != nil {
		t.Fatal(err)
	}
	eb, ok := sub.(*Batch)
	if !ok {
		t.Fatalf("decoded batch is %T", sub)
	}
	if ids := eb.IDs(); len(ids) != 2 || ids[0] != "fig2" || ids[1] != "tab-l1" {
		t.Fatalf("decoded ids = %v", ids)
	}
}

// TestDescribeEnvCarriesScale checks the lease-borne environment
// description is exactly the batch's scale.
func TestDescribeEnvCarriesScale(t *testing.T) {
	env := NewQuickEnv()
	env.Seed = 7
	b, err := NewBatch([]string{"fig1"}, env)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := b.DescribeEnv()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"accesses":400000,"seed":7,"min_r2":0.97}`
	if string(desc) != want {
		t.Errorf("DescribeEnv = %s, want %s", desc, want)
	}
}

// TestVerifyScale pins the worker-side fleet agreement check: matching
// scales pass, mismatches hard-fail naming both, non-experiment kinds and
// malformed descriptions behave sanely.
func TestVerifyScale(t *testing.T) {
	defer SetProcessEnv(nil)
	SetProcessEnv(NewQuickEnv)
	local, err := NewBatch([]string{"fig1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := local.DescribeEnv()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyScale(WorkKind, desc); err != nil {
		t.Errorf("matching scale rejected: %v", err)
	}

	fullDesc, err := func() (json.RawMessage, error) {
		b, err := NewBatch([]string{"fig1"}, NewEnv())
		if err != nil {
			t.Fatal(err)
		}
		return b.DescribeEnv()
	}()
	if err != nil {
		t.Fatal(err)
	}
	err = VerifyScale(WorkKind, fullDesc)
	if err == nil || !strings.Contains(err.Error(), "scale mismatch") ||
		!strings.Contains(err.Error(), "accesses=1000000") || !strings.Contains(err.Error(), "accesses=400000") {
		t.Errorf("mismatch err = %v, want both scales named", err)
	}

	// Other kinds carry self-contained payloads: nothing to verify.
	if err := VerifyScale("scenario-batch", fullDesc); err != nil {
		t.Errorf("non-experiment kind checked: %v", err)
	}
	if err := VerifyScale(WorkKind, json.RawMessage(`{"bogus":1}`)); err == nil {
		t.Error("malformed lease environment accepted")
	}
}

// TestProcessEnvSharedAndResettable checks the wire-decode environment is
// built once per process and dropped when the factory changes.
func TestProcessEnvSharedAndResettable(t *testing.T) {
	defer SetProcessEnv(nil)
	calls := 0
	SetProcessEnv(func() *Env {
		calls++
		return NewQuickEnv()
	})
	e1 := processEnv()
	e2 := processEnv()
	if e1 != e2 || calls != 1 {
		t.Fatalf("process env not shared: %d factory calls", calls)
	}
	SetProcessEnv(func() *Env {
		calls++
		return NewQuickEnv()
	})
	if e3 := processEnv(); e3 == e1 || calls != 2 {
		t.Fatalf("SetProcessEnv must drop the built env (calls=%d)", calls)
	}
}
