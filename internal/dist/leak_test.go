package dist

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// settleGoroutines snapshots the goroutine count and returns a check that
// fails the test if the count has not returned to the snapshot within a
// grace period (HTTP transport read loops take a moment to wind down after
// connections close).
func settleGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestNoLeakWhenWorkerDies checks the service leaks nothing when a
// worker takes a lease and dies: the batch completes via re-lease and
// every service goroutine exits.
func TestNoLeakWhenWorkerDies(t *testing.T) {
	check := settleGoroutines(t)

	ctx := context.Background()
	o := startOneBatch(t, ctx, toyBatch{6}, "", false, ServiceConfig{Units: 3, LeaseTTL: 50 * time.Millisecond})
	if lease := leaseRaw(t, o.srv, "doomed"); lease.Unit == nil {
		t.Fatal("doomed worker got no unit")
	}
	// The doomed worker never heartbeats again; a live one finishes the
	// batch after the lease expires.
	done := o.drainAsync(t, ctx)
	if err := runWorkers(ctx, o.srv, 1, toyExec(-1)); err != nil {
		t.Fatal(err)
	}
	<-done

	o.close()
	check()
}

// TestNoLeakWhenConsumerAbandons checks the stream and workers unwind
// when the result consumer walks away mid-stream: cancelling the run
// context is enough, no draining required.
func TestNoLeakWhenConsumerAbandons(t *testing.T) {
	check := settleGoroutines(t)

	ctx, cancel := context.WithCancel(context.Background())
	// Workers slow enough that the consumer can abandon a running batch.
	slow := func(uctx context.Context, u Unit) ([][]byte, error) {
		if err := sleep(uctx, 10*time.Millisecond); err != nil {
			return nil, err
		}
		return toyExec(-1)(uctx, u)
	}
	o := startOneBatch(t, ctx, toyBatch{32}, "", false, ServiceConfig{Units: 16})

	workersDone := make(chan error, 1)
	go func() { workersDone <- runWorkers(ctx, o.srv, 2, slow) }()

	// Take one line, then abandon the stream without draining.
	err := o.svc.Results(ctx, o.id, func([]byte, bool) error {
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Results() = %v, want context.Canceled", err)
	}
	if err := <-workersDone; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("workers: %v", err)
	}

	o.close()
	check()
}

// TestNoLeakAcrossManyRuns runs several full one-batch lifecycles and
// checks nothing accumulates — the per-run goroutines (server, workers,
// heartbeats, stream wake-ups) all terminate with their run.
func TestNoLeakAcrossManyRuns(t *testing.T) {
	check := settleGoroutines(t)
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		o := startOneBatch(t, ctx, toyBatch{8}, "", false, ServiceConfig{Units: 4})
		done := o.drainAsync(t, ctx)
		if err := runWorkers(ctx, o.srv, 3, toyExec(-1)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := (<-done).String(); got != toyWant(8) {
			t.Fatalf("round %d output %q", round, got)
		}
		o.close()
	}
	check()
}

// TestWorkerHeartbeatStopsWithUnit pins that a worker's heartbeat loop
// ends with its unit: after Run returns, no heartbeat goroutine survives.
func TestWorkerHeartbeatStopsWithUnit(t *testing.T) {
	check := settleGoroutines(t)
	ctx := context.Background()
	o := startOneBatch(t, ctx, toyBatch{4}, "", false, ServiceConfig{Units: 2, LeaseTTL: 30 * time.Millisecond})
	done := o.drainAsync(t, ctx)
	// Slow units force several heartbeats per lease.
	slow := func(uctx context.Context, u Unit) ([][]byte, error) {
		if err := sleep(uctx, 100*time.Millisecond); err != nil {
			return nil, err
		}
		return toyExec(-1)(uctx, u)
	}
	if err := runWorkers(ctx, o.srv, 2, slow); err != nil {
		t.Fatal(err)
	}
	<-done
	o.close()
	check()
}

// TestOneBatchShutdown pins the one-shot lifecycle `sweepd serve` runs:
// once the batch is terminal and the service context is cancelled,
// every lease answers done, a worker's Run returns nil instead of
// polling forever, and no goroutine outlives the run.
func TestOneBatchShutdown(t *testing.T) {
	check := settleGoroutines(t)
	ctx := context.Background()
	o := startOneBatch(t, ctx, toyBatch{4}, "", false, ServiceConfig{Units: 2})

	done := make(chan error, 1)
	go func() { done <- runWorkers(ctx, o.srv, 2, toyExec(-1)) }()
	var buf bytes.Buffer
	if err := o.svc.Results(ctx, o.id, func(line []byte, _ bool) error {
		buf.Write(line)
		buf.WriteByte('\n')
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != toyWant(4) {
		t.Fatalf("output %q", got)
	}
	if st := o.state(t); st.State != BatchDone {
		t.Fatalf("batch state %s, want done", st.State)
	}
	// Terminal, but the service still runs: an idle poll is told to
	// retry, not to exit — a standing service's fleet waits for the next
	// submission. Cancelling the context is what ends the fleet.
	if lease := leaseRaw(t, o.srv, "idle"); lease.Done || lease.RetryAfterMS == 0 {
		t.Errorf("idle lease before shutdown = %+v, want a retry hint", lease)
	}
	o.stop()
	if err := <-done; err != nil {
		t.Fatalf("workers after shutdown: %v, want nil", err)
	}
	if lease := leaseRaw(t, o.srv, "late"); !lease.Done || lease.Unit != nil {
		t.Errorf("lease after shutdown = %+v, want done", lease)
	}
	late := &Worker{Coordinator: o.srv.URL, ID: "late", Exec: toyExec(-1), Client: o.srv.Client()}
	if err := late.Run(ctx); err != nil {
		t.Errorf("worker joining after shutdown: %v, want nil", err)
	}

	o.close()
	check()
}
