package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist/journal"
	"repro/internal/dist/store"
	"repro/internal/exp"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/work"
)

// toyBatch is a fast synthetic work.Batch: item i's result line is
// {"i":i}, and a unit's payload is its bare range, which toyExec runs
// without the work registry. It exercises every protocol path without
// paying for real simulations.
type toyBatch struct{ n int }

func (b toyBatch) Kind() string          { return "toy" }
func (b toyBatch) Len() int              { return b.n }
func (b toyBatch) Hash() (string, error) { return fmt.Sprintf("toyhash%d", b.n), nil }
func (b toyBatch) RunItem(_ context.Context, i int) (json.RawMessage, error) {
	return json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)), nil
}
func (b toyBatch) MarshalRange(r sweep.Range) (json.RawMessage, error) {
	return json.Marshal(r)
}

// toyExec executes toy units; failAt >= 0 makes the unit containing that
// index fail deterministically.
func toyExec(failAt int) Executor {
	return func(ctx context.Context, u Unit) ([][]byte, error) {
		var r sweep.Range
		if err := json.Unmarshal(u.Payload, &r); err != nil {
			return nil, err
		}
		var lines [][]byte
		for i := r.Lo; i < r.Hi; i++ {
			if i == failAt {
				return nil, fmt.Errorf("toy item %d exploded", i)
			}
			lines = append(lines, []byte(fmt.Sprintf(`{"i":%d}`, i)))
		}
		return lines, nil
	}
}

// toyWant renders the sequential toy output for n items.
func toyWant(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"i":%d}`+"\n", i)
	}
	return b.String()
}

// oneBatch is the shape one-shot `sweepd serve` runs: a service over a
// single-journal store holding one submitted batch, served over HTTP.
type oneBatch struct {
	svc  *Service
	srv  *httptest.Server
	id   string
	stop context.CancelFunc // ends the service context
	// close stops the service and releases the server and the store; it
	// is idempotent and also runs at test cleanup.
	close func()
}

// startOneBatch submits b to a fresh one-batch service whose journal is
// path (a temp file when empty), resumed when resume is set. ctx is the
// service's parent context. Workers get a 5ms retry hint unless cfg
// sets one, so they notice the shutdown promptly.
func startOneBatch(t *testing.T, ctx context.Context, b work.Batch, path string, resume bool, cfg ServiceConfig) oneBatch {
	t.Helper()
	if path == "" {
		path = filepath.Join(t.TempDir(), "batch.journal")
	}
	cfg.Store = store.OpenJournal(path, resume)
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = time.Minute
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = 5 * time.Millisecond
	}
	sctx, stop := context.WithCancel(ctx)
	svc, err := NewService(sctx, cfg)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	st, _, err := svc.Submit(b)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	var once sync.Once
	o := oneBatch{svc: svc, srv: srv, id: st.ID, stop: stop, close: func() {
		once.Do(func() {
			stop()
			srv.CloseClientConnections()
			srv.Close()
			svc.Close()
		})
	}}
	t.Cleanup(o.close)
	return o
}

// drain reads the batch's ordered stream in-process — what one-shot
// serve writes to stdout, skipping lines a resume replayed — and then
// stops the service, as serve does once the batch is terminal.
func (o oneBatch) drain(ctx context.Context) (*bytes.Buffer, error) {
	var buf bytes.Buffer
	err := o.svc.Results(ctx, o.id, func(line []byte, cached bool) error {
		if !cached {
			buf.Write(line)
			buf.WriteByte('\n')
		}
		return nil
	})
	o.stop()
	return &buf, err
}

// drainAsync runs drain on its own goroutine; the channel yields the
// output once the stream ended without error.
func (o oneBatch) drainAsync(t *testing.T, ctx context.Context) <-chan *bytes.Buffer {
	out := make(chan *bytes.Buffer, 1)
	go func() {
		buf, err := o.drain(ctx)
		if err != nil {
			t.Errorf("results: %v", err)
		}
		out <- buf
	}()
	return out
}

// state reads the batch's status row.
func (o oneBatch) state(t *testing.T) BatchStatus {
	t.Helper()
	st, ok := o.svc.Batch(o.id)
	if !ok {
		t.Fatalf("service lost batch %s", o.id)
	}
	return st
}

// runWorkers runs k in-process workers against the service and waits
// for all of them; the first non-nil worker error is returned.
func runWorkers(ctx context.Context, srv *httptest.Server, k int, exec Executor) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		werr error
	)
	for i := 0; i < k; i++ {
		w := &Worker{
			Coordinator: srv.URL,
			ID:          fmt.Sprintf("w%d", i),
			Exec:        exec,
			Client:      srv.Client(),
			Poll:        5 * time.Millisecond,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				mu.Lock()
				if werr == nil {
					werr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return werr
}

// TestToyDistributedOrder checks the basic contract on a synthetic batch:
// several workers, more units than workers, output in input order.
func TestToyDistributedOrder(t *testing.T) {
	ctx := t.Context()
	o := startOneBatch(t, ctx, toyBatch{10}, "", false, ServiceConfig{Units: 4})

	done := o.drainAsync(t, ctx)
	if err := runWorkers(ctx, o.srv, 3, toyExec(-1)); err != nil {
		t.Fatal(err)
	}
	if got, want := (<-done).String(), toyWant(10); got != want {
		t.Errorf("distributed output out of order:\n got: %q\nwant: %q", got, want)
	}
	if st := o.state(t); st.State != BatchDone {
		t.Errorf("batch state %s, want done", st.State)
	}
}

// TestScenarioDistributedMatchesSequential is the acceptance test: a
// one-batch service with two in-process workers produces byte-identical
// NDJSON to the buffered sequential run of the same scenario batch.
func TestScenarioDistributedMatchesSequential(t *testing.T) {
	b := testBatch(t, 4)

	// Sequential reference: one worker, the plain streaming pipeline.
	var want bytes.Buffer
	if err := work.Run(t.Context(), b, work.Options{Workers: 1}, &want); err != nil {
		t.Fatal(err)
	}

	ctx := t.Context()
	o := startOneBatch(t, ctx, b, "", false, ServiceConfig{Units: 3})
	done := o.drainAsync(t, ctx)
	if err := runWorkers(ctx, o.srv, 2, RegistryExecutor(1)); err != nil {
		t.Fatal(err)
	}
	if got := <-done; !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("distributed output differs from sequential:\n got: %s\nwant: %s", got.Bytes(), want.Bytes())
	}
}

// testBatch builds a small real scenario batch (short simulations).
func testBatch(t *testing.T, n int) scenario.Batch {
	t.Helper()
	var cfgs []string
	for i := 0; i < n; i++ {
		cfgs = append(cfgs, fmt.Sprintf(
			`{"name":"s%d","l1_kb":16,"l2_kb":%d,"workload":"tpcc","accesses":20000}`, i, 256<<(i%2)))
	}
	b, err := scenario.LoadBatch(strings.NewReader(`{"scenarios":[` + strings.Join(cfgs, ",") + `]}`))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkerDeathReLease kills a worker mid-lease (it leases a unit and
// vanishes without heartbeating) and checks the lease expires, the unit is
// re-leased, and the batch still completes with ordered, complete output.
func TestWorkerDeathReLease(t *testing.T) {
	ctx := t.Context()
	o := startOneBatch(t, ctx, toyBatch{6}, "", false, ServiceConfig{Units: 3, LeaseTTL: 50 * time.Millisecond})

	// The zombie takes a lease and is never heard from again.
	if zombie := leaseRaw(t, o.srv, "zombie"); zombie.Unit == nil {
		t.Fatal("zombie got no unit")
	}

	done := o.drainAsync(t, ctx)
	if err := runWorkers(ctx, o.srv, 1, toyExec(-1)); err != nil {
		t.Fatal(err)
	}
	if got, want := (<-done).String(), toyWant(6); got != want {
		t.Errorf("output after worker death:\n got: %q\nwant: %q", got, want)
	}
}

// TestLateResultIdempotent checks a presumed-dead worker's late result is
// accepted without duplicating lines: results are idempotent per index.
func TestLateResultIdempotent(t *testing.T) {
	ctx := t.Context()
	o := startOneBatch(t, ctx, toyBatch{4}, "", false, ServiceConfig{Units: 2, LeaseTTL: 50 * time.Millisecond})

	zombie := leaseRaw(t, o.srv, "zombie")
	if zombie.Unit == nil {
		t.Fatal("zombie got no unit")
	}

	done := o.drainAsync(t, ctx)
	if err := runWorkers(ctx, o.srv, 1, toyExec(-1)); err != nil {
		t.Fatal(err)
	}
	buf := <-done

	// The zombie wakes up and reports the unit everyone moved past.
	postToyResult(t, o.srv, "zombie", *zombie.Unit, -1)
	if got, want := buf.String(), toyWant(4); got != want {
		t.Errorf("late result corrupted output:\n got: %q\nwant: %q", got, want)
	}
	if st := o.state(t); st.ItemsDone != 4 || st.ItemsExecuted != 4 {
		t.Errorf("late result double-counted: %+v", st)
	}
}

// TestFailurePropagates checks a deterministic unit failure fails the
// batch: the worker reports it, the batch status carries it, the result
// stream ends at the gap, and once the one-batch service stops, leases
// tell workers the run is over.
func TestFailurePropagates(t *testing.T) {
	ctx := t.Context()
	o := startOneBatch(t, ctx, toyBatch{6}, "", false, ServiceConfig{Units: 3})

	done := o.drainAsync(t, ctx)
	werr := runWorkers(ctx, o.srv, 2, toyExec(4))
	<-done
	if werr == nil || !strings.Contains(werr.Error(), "exploded") {
		t.Fatalf("worker error = %v, want the toy explosion", werr)
	}
	if st := o.state(t); st.State != BatchFailed || !strings.Contains(st.Error, "exploded") {
		t.Fatalf("batch = %+v, want failed with the unit failure", st)
	}
	if lease := leaseRaw(t, o.srv, "latecomer"); !lease.Done {
		t.Error("post-failure lease should report done so workers exit")
	}
}

// TestResumeSkipsFinishedUnits restarts a one-batch service against a
// journal holding a finished prefix and checks: covered units are never
// leased, nothing journaled is re-emitted, and journal + new emissions
// reassemble the full sequential output.
func TestResumeSkipsFinishedUnits(t *testing.T) {
	const n = 8
	b := toyBatch{n}
	hash, _ := b.Hash()
	path := filepath.Join(t.TempDir(), "toy.journal")
	h := journal.Header{Kind: b.Kind(), BatchSHA256: hash, N: n}

	// A previous run completed indices 0..4 (units 0 and 1 of 4, plus a
	// partial unit 2) before dying.
	j, err := journal.Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 4; i++ {
		if err := j.Record(i, []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	ctx := t.Context()
	o := startOneBatch(t, ctx, b, path, true, ServiceConfig{Units: 4})
	if st := o.state(t); st.ItemsCachedJournal != 5 {
		t.Fatalf("resumed admission replayed %d items, want 5", st.ItemsCachedJournal)
	}

	var (
		mu     sync.Mutex
		leased []int
	)
	w := &Worker{
		Coordinator: o.srv.URL, ID: "w0", Client: o.srv.Client(), Poll: 5 * time.Millisecond,
		Exec: toyExec(-1),
		OnUnit: func(u Unit) {
			mu.Lock()
			leased = append(leased, u.ID)
			mu.Unlock()
		},
	}
	done := o.drainAsync(t, ctx)
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	buf := <-done

	// With 8 items in 4 units of 2, indices 0..4 done means units 0 and 1
	// are fully covered and must never be executed again.
	for _, id := range leased {
		if id == 0 || id == 1 {
			t.Errorf("fully journaled unit %d was re-executed", id)
		}
	}
	// The resumed run emits only the remainder.
	if got, want := buf.String(), `{"i":5}`+"\n"+`{"i":6}`+"\n"+`{"i":7}`+"\n"; got != want {
		t.Errorf("resumed emission:\n got: %q\nwant: %q", got, want)
	}
	// And the journal now reassembles the complete sequential output.
	all, err := journal.Replay(path, h)
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	for i := 0; i < n; i++ {
		full.Write(all[i])
		full.WriteByte('\n')
	}
	if got, want := full.String(), toyWant(n); got != want {
		t.Errorf("journal reassembly:\n got: %q\nwant: %q", got, want)
	}
}

// TestStatus checks the observability probe after a completed run: the
// progress counters, the per-worker accounting, and a positive observed
// rate with no ETA (nothing remains).
func TestStatus(t *testing.T) {
	ctx := t.Context()
	o := startOneBatch(t, ctx, toyBatch{5}, "", false, ServiceConfig{Units: 2})
	done := o.drainAsync(t, ctx)
	if err := runWorkers(ctx, o.srv, 1, toyExec(-1)); err != nil {
		t.Fatal(err)
	}
	<-done
	st := getStatus(t, o.srv)
	if len(st.Batches) != 1 {
		t.Fatalf("status batches = %+v", st.Batches)
	}
	if b := st.Batches[0]; b.Kind != "toy" || b.N != 5 || b.ItemsDone != 5 || b.ItemsCachedJournal != 0 ||
		b.UnitsTotal != 2 || b.UnitsDone != 2 || b.UnitsLeased != 0 || b.State != BatchDone {
		t.Errorf("batch row = %+v", b)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth %d after completion", st.QueueDepth)
	}
	if st.ItemsPerSec <= 0 {
		t.Errorf("completed run must report a positive rate, got %v", st.ItemsPerSec)
	}
	if st.ETAMS != 0 {
		t.Errorf("completed run must omit the ETA, got %d", st.ETAMS)
	}
	if len(st.InFlight) != 0 {
		t.Errorf("completed run has in-flight units: %+v", st.InFlight)
	}
	if len(st.Workers) != 1 || st.Workers[0].ID != "w0" ||
		st.Workers[0].UnitsDone != 2 || st.Workers[0].ItemsDone != 5 || !st.Workers[0].Live {
		t.Errorf("workers = %+v", st.Workers)
	}
}

// fakeClock is a mutable obs.Clock for pinning the service's derived
// status arithmetic.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) clock() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// getStatus scrapes GET /v1/status.
func getStatus(t *testing.T, srv *httptest.Server) ServiceStatus {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ServiceStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// postToyResult reports one toy unit's lines over raw HTTP, optionally
// with the exec_ms timing parameter (execMS < 0 omits it).
func postToyResult(t *testing.T, srv *httptest.Server, worker string, u Unit, execMS int64) {
	t.Helper()
	var lines []string
	for i := u.Range.Lo; i < u.Range.Hi; i++ {
		lines = append(lines, fmt.Sprintf(`{"i":%d}`, i))
	}
	target := fmt.Sprintf("%s/v1/result?worker=%s&unit=%d&batch=%s", srv.URL, worker, u.ID, u.Batch)
	if execMS >= 0 {
		target += fmt.Sprintf("&exec_ms=%d", execMS)
	}
	resp, err := srv.Client().Post(target, "application/x-ndjson", strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result for unit %d rejected: %s", u.ID, resp.Status)
	}
}

// TestStatusMidRun is the acceptance test for the operator probe: it
// drives a distributed run over raw HTTP under a fake clock, scraping
// /v1/status and /metrics mid-run, and pins the derived fields —
// throughput, ETA, per-worker liveness, lease ages, and the straggler
// flag — plus their monotone progression as units complete.
func TestStatusMidRun(t *testing.T) {
	fc := &fakeClock{now: time.Unix(1000, 0)}
	ctx := t.Context()
	o := startOneBatch(t, ctx, toyBatch{8}, "", false, ServiceConfig{Units: 4, Clock: fc.clock})
	srv := o.srv
	done := o.drainAsync(t, ctx)

	// w0 executes unit 0 in one simulated second.
	lease := leaseRaw(t, srv, "w0")
	if lease.Unit == nil || lease.Unit.ID != 0 {
		t.Fatalf("lease = %+v", lease)
	}
	fc.advance(time.Second)
	postToyResult(t, srv, "w0", *lease.Unit, 1000)

	st := getStatus(t, srv)
	if st.Batches[0].ItemsDone != 2 || st.ElapsedMS != 1000 {
		t.Fatalf("after unit 0: %+v", st)
	}
	if st.ItemsPerSec != 2 {
		t.Errorf("rate = %v, want 2 items/s (2 items in 1s)", st.ItemsPerSec)
	}
	if st.ETAMS != 3000 {
		t.Errorf("eta = %dms, want 3000 (6 remaining at 2/s)", st.ETAMS)
	}
	if st.UnitMeanMS != 1000 {
		t.Errorf("unit mean = %vms, want 1000", st.UnitMeanMS)
	}
	if len(st.Workers) != 1 || st.Workers[0].LastSeenMS != 0 || !st.Workers[0].Live || st.Workers[0].CurrentUnit != nil {
		t.Errorf("workers after unit 0 = %+v", st.Workers)
	}
	firstDone := st.Batches[0].ItemsDone

	// w0 finishes units 1 and 2 at the same pace; the exec-time baseline
	// now has stragglerMinSamples observations of ~1000ms each.
	for i := 0; i < 2; i++ {
		lease = leaseRaw(t, srv, "w0")
		if lease.Unit == nil {
			t.Fatal("no unit leased")
		}
		fc.advance(time.Second)
		postToyResult(t, srv, "w0", *lease.Unit, 1000)
	}

	// w1 leases the last unit and goes quiet for five simulated seconds —
	// five times the mean unit time.
	lease = leaseRaw(t, srv, "w1")
	if lease.Unit == nil {
		t.Fatal("w1 got no unit")
	}
	slow := *lease.Unit
	fc.advance(5 * time.Second)

	st = getStatus(t, srv)
	if st.Batches[0].ItemsDone < firstDone {
		t.Errorf("items_done went backwards: %d -> %d", firstDone, st.Batches[0].ItemsDone)
	}
	if st.Batches[0].ItemsDone != 6 || st.Batches[0].UnitsLeased != 1 {
		t.Fatalf("mid-run status = %+v", st)
	}
	if len(st.InFlight) != 1 {
		t.Fatalf("in-flight = %+v", st.InFlight)
	}
	fl := st.InFlight[0]
	if fl.Batch != o.id || fl.ID != slow.ID || fl.Worker != "w1" || fl.Items != 2 || fl.LeaseAgeMS != 5000 {
		t.Errorf("in-flight unit = %+v", fl)
	}
	if !fl.Straggler {
		t.Error("a 5000ms lease against a 1000ms unit mean must flag as straggler")
	}
	var w0, w1 *WorkerStatus
	for i := range st.Workers {
		switch st.Workers[i].ID {
		case "w0":
			w0 = &st.Workers[i]
		case "w1":
			w1 = &st.Workers[i]
		}
	}
	if w0 == nil || w1 == nil {
		t.Fatalf("workers = %+v", st.Workers)
	}
	if w0.UnitsDone != 3 || w0.ItemsDone != 6 || w0.LastSeenMS != 5000 || !w0.Live {
		t.Errorf("w0 = %+v", *w0)
	}
	if w1.LastSeenMS != 5000 || !w1.Live || w1.CurrentUnit == nil || *w1.CurrentUnit != slow.ID {
		t.Errorf("w1 = %+v", *w1)
	}

	// The same state through the Prometheus endpoint.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type = %q", ct)
	}
	for _, want := range []string{
		`dist_batches{state="running"} 1`,
		`dist_store_items{source="executed"} 6`,
		`dist_service_workers_live 2`,
		`dist_service_items_per_second 0.75`,
		`dist_service_eta_seconds 2.6666666666666665`,
		`dist_unit_exec_seconds_count{kind="toy"} 3`,
		`dist_unit_exec_seconds_sum{kind="toy"} 3`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}

	// The straggler finally reports; the run completes and the probe
	// settles monotone at done.
	postToyResult(t, srv, "w1", slow, 800)
	st = getStatus(t, srv)
	if b := st.Batches[0]; b.ItemsDone != 8 || b.UnitsDone != 4 || b.UnitsLeased != 0 || b.State != BatchDone ||
		st.ETAMS != 0 || len(st.InFlight) != 0 {
		t.Errorf("final status = %+v", st)
	}

	if got, want := (<-done).String(), toyWant(8); got != want {
		t.Errorf("instrumented run output:\n got: %q\nwant: %q", got, want)
	}
}

// TestStatusExecFallback checks the timing fallback for workers that do
// not report exec_ms: the lease age stands in, so UnitMeanMS still
// populates against an old fleet.
func TestStatusExecFallback(t *testing.T) {
	fc := &fakeClock{now: time.Unix(1000, 0)}
	ctx := t.Context()
	o := startOneBatch(t, ctx, toyBatch{4}, "", false, ServiceConfig{Units: 2, Clock: fc.clock})
	done := o.drainAsync(t, ctx)

	for i := 0; i < 2; i++ {
		lease := leaseRaw(t, o.srv, "w0")
		if lease.Unit == nil {
			t.Fatal("no unit leased")
		}
		fc.advance(2 * time.Second)
		postToyResult(t, o.srv, "w0", *lease.Unit, -1) // no exec_ms
	}
	if st := getStatus(t, o.srv); st.UnitMeanMS != 2000 {
		t.Errorf("lease-age fallback mean = %vms, want 2000", st.UnitMeanMS)
	}
	<-done
}

// leaseRaw takes a lease over plain HTTP, bypassing the Worker loop.
func leaseRaw(t *testing.T, srv *httptest.Server, worker string) LeaseResponse {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/v1/lease", "application/json",
		strings.NewReader(`{"worker":"`+worker+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lease LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	return lease
}

// TestExperimentsSpec checks the experiment-grid glue without paying for a
// real evaluation: unknown IDs fail at batch construction, and every
// leased unit's payload carries its range's slice of the selection.
func TestExperimentsSpec(t *testing.T) {
	if _, err := exp.NewBatch([]string{"fig1", "no-such-artifact"}, nil); err == nil ||
		!strings.Contains(err.Error(), "no-such-artifact") {
		t.Fatalf("unknown id must fail batch construction, got %v", err)
	}
	ids := []string{"fig1", "fig2", "tab-l1"}
	b, err := exp.NewBatch(ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := startOneBatch(t, t.Context(), b, "", false, ServiceConfig{Units: 2})
	covered := 0
	for k := 0; k < 2; k++ {
		lease := leaseRaw(t, o.srv, fmt.Sprintf("w%d", k))
		if lease.Unit == nil || lease.Unit.Kind != exp.WorkKind {
			t.Fatalf("lease %d = %+v", k, lease)
		}
		var p struct {
			IDs []string `json:"ids"`
		}
		if err := json.Unmarshal(lease.Unit.Payload, &p); err != nil {
			t.Fatal(err)
		}
		r := lease.Unit.Range
		if want := ids[r.Lo:r.Hi]; strings.Join(p.IDs, ",") != strings.Join(want, ",") {
			t.Errorf("unit %d payload ids = %v, want %v", lease.Unit.ID, p.IDs, want)
		}
		covered += r.Len()
	}
	if covered != len(ids) {
		t.Errorf("units cover %d items, want %d", covered, len(ids))
	}
}

// TestRegistryExecutorRejectsUnknownKind pins the registry check: a unit
// of an unregistered kind is refused with the registered kind list.
func TestRegistryExecutorRejectsUnknownKind(t *testing.T) {
	_, err := RegistryExecutor(1)(t.Context(), Unit{Kind: "toy", Payload: []byte(`{}`)})
	if err == nil || !strings.Contains(err.Error(), `"toy"`) ||
		!strings.Contains(err.Error(), scenario.JournalKind) {
		t.Fatalf("unknown kind must be refused with the registered list, got %v", err)
	}
}

// TestRegistryExecutorRangeMismatch pins the payload/range sanity check: a
// unit whose payload carries a different item count than its range is
// refused before any work runs.
func TestRegistryExecutorRangeMismatch(t *testing.T) {
	b := testBatch(t, 2)
	payload, err := b.MarshalRange(sweep.Range{Lo: 0, Hi: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := Unit{Kind: scenario.JournalKind, Payload: payload, Range: sweep.Range{Lo: 0, Hi: 3}}
	if _, err := RegistryExecutor(1)(t.Context(), u); err == nil ||
		!strings.Contains(err.Error(), "range wants 3") {
		t.Fatalf("range mismatch must be refused, got %v", err)
	}
}
