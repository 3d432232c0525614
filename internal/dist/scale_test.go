package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
)

// TestLeaseDescribesEnv checks a granted lease forwards an EnvDescriber
// batch's environment — and carries none for self-contained kinds.
func TestLeaseDescribesEnv(t *testing.T) {
	env := exp.NewQuickEnv()
	eb, err := exp.NewBatch([]string{"fig1", "fig2"}, env)
	if err != nil {
		t.Fatal(err)
	}
	o := startOneBatch(t, t.Context(), eb, "", false, ServiceConfig{Units: 1})
	lease := leaseRaw(t, o.srv, "w")
	var scale exp.Scale
	if err := json.Unmarshal(lease.Env, &scale); err != nil {
		t.Fatalf("lease env %s: %v", lease.Env, err)
	}
	if want := exp.ScaleOf(env); scale != want {
		t.Errorf("lease declares %v, want %v", scale, want)
	}

	o = startOneBatch(t, t.Context(), toyBatch{1}, "", false, ServiceConfig{Units: 1})
	if lease := leaseRaw(t, o.srv, "w"); lease.Unit == nil || lease.Env != nil {
		t.Errorf("self-contained kind: lease %+v, want a unit with no env", lease)
	}
}

// envToyBatch is a toyBatch that declares a process environment.
type envToyBatch struct {
	toyBatch
	env json.RawMessage
}

func (b envToyBatch) DescribeEnv() (json.RawMessage, error) { return b.env, nil }

// TestWorkerVerifyEnvHardFails pins the fleet-scale agreement: a worker
// whose VerifyEnv rejects the batch's declared environment exits with
// that error before executing anything — and without aborting the batch,
// so a correctly configured peer can still finish the sweep.
func TestWorkerVerifyEnvHardFails(t *testing.T) {
	b := envToyBatch{toyBatch{4}, json.RawMessage(`{"accesses":1000000,"seed":1,"min_r2":0.97}`)}
	ctx := t.Context()
	o := startOneBatch(t, ctx, b, "", false, ServiceConfig{Units: 2, LeaseTTL: 200 * time.Millisecond})
	done := o.drainAsync(t, ctx)

	executed := false
	bad := &Worker{
		Coordinator: o.srv.URL,
		ID:          "misconfigured",
		Client:      o.srv.Client(),
		Poll:        5 * time.Millisecond,
		VerifyEnv: func(kind string, env json.RawMessage) error {
			if kind != "toy" {
				t.Errorf("VerifyEnv saw kind %q", kind)
			}
			if !strings.Contains(string(env), "1000000") {
				t.Errorf("VerifyEnv saw env %s", env)
			}
			return fmt.Errorf("scale mismatch: fleet wants full, this worker runs -quick")
		},
		Exec: func(ctx context.Context, u Unit) ([][]byte, error) {
			executed = true
			return toyExec(-1)(ctx, u)
		},
	}
	err := bad.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "scale mismatch") {
		t.Fatalf("misconfigured worker returned %v, want the mismatch error", err)
	}
	if executed {
		t.Error("misconfigured worker executed a unit before failing")
	}

	// The batch is not poisoned: a good worker drains it completely once
	// the misconfigured worker's abandoned lease expires.
	good := &Worker{
		Coordinator: o.srv.URL,
		ID:          "aligned",
		Client:      o.srv.Client(),
		Poll:        5 * time.Millisecond,
		VerifyEnv:   func(string, json.RawMessage) error { return nil },
		Exec:        toyExec(-1),
	}
	if err := good.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := (<-done).String(); got != toyWant(4) {
		t.Errorf("reassembled output = %q, want %q", got, toyWant(4))
	}
}
