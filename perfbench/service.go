package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cachecfg"
	"repro/internal/dist"
	"repro/internal/dist/store"
	"repro/internal/grid"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/work"
)

// The service-mixed load: an open loop of small analytical grid batches
// against an in-process dist.Service over loopback HTTP.
const (
	// svcSeedBatches fill the store before timing; resubmissions and
	// overlapping batches draw on them.
	svcSeedBatches = 8
	// svcRate is the send rate in batches per second. Each batch is sent
	// at a seeded random moment within its own 1/svcRate slot: a strictly
	// periodic schedule can lock in phase with the workers' lease polling
	// and give every batch the same wait, which a different rate or seed
	// would then move wholesale, while Poisson arrivals would make the
	// number of batches per second itself vary from run to run. An
	// executed batch holds a client connection for about 100 ms, so at
	// this rate the two connections are less than half busy and latency
	// measures the service, not the generator's connection pool.
	svcRate = 10.0
	// svcSetupReps is how many times set-up (reopen the store, restore the
	// service) runs; setup_s is their median.
	svcSetupReps = 9
	// svcSampleReps is how often the traced run re-executes each item of
	// the first seed batch phase by phase.
	svcSampleReps = 3
)

// svcPinned is the hex SHA-256 of the workers=1 output of the seed
// batches at defaultSeed. The timed batches are built the same way from
// the same code, and every stream is also checked against in-process
// references, so the seed batches pin the output whatever --seconds is.
const svcPinned = "d2799a779377b4f71b65a9db0a436bef2fdb4873862a95872a03f5f341293741"

// The batch kinds of the timed mix.
const (
	kindFresh    = "fresh"    // new points only: execute, journal, index
	kindResubmit = "resubmit" // a seed batch again: served from its journal
	kindOverlap  = "overlap"  // half a seed batch's points, half new
)

// svcMix is the repeating order of the timed batches. Resubmissions
// finish in a few milliseconds, so they are the smallest share: every
// one moves the median further down the spread of the executed batches'
// latencies (a wait for the workers' next lease poll, uniform over the
// poll interval), where a median of ~200 samples is least stable.
var svcMix = []string{
	kindFresh, kindOverlap, kindFresh, kindOverlap,
	kindFresh, kindOverlap, kindFresh, kindOverlap,
	kindResubmit,
}

var (
	svcL1KB      = []int{16, 32}
	svcL2KB      = []int{256, 512}
	svcWorkloads = []string{"spec2000", "specweb", "tpcc", "average"}
)

// svcBudget is the AMAT budget (ps) with index c. Every batch takes two
// indices no other batch takes, so a point is shared only where the mix
// shares it on purpose.
func svcBudget(c int) float64 { return 2000 + 0.5*float64(c) }

// svcBatch is one batch of the schedule.
type svcBatch struct {
	kind    string
	at      time.Duration // send time after the start of the timed phase
	budgets []float64
	b       *grid.Batch
	body    []byte // POST /v1/batches document
}

func newSvcBatch(seed int64, kind string, budgets []float64) (svcBatch, error) {
	spec := grid.Spec{Grid: grid.Grid{
		Name: "s-l1{l1_kb}-l2{l2_kb}-{workload}-b{amat_budget_ps}",
		Axes: grid.Axes{L1KB: svcL1KB, L2KB: svcL2KB, Workload: svcWorkloads, AMATBudgetPS: budgets},
		Base: scenario.Config{Seed: seed, Fidelity: profile.FidelityAnalytical},
	}}
	b, err := spec.Expand()
	if err != nil {
		return svcBatch{}, err
	}
	payload, err := b.MarshalRange(sweep.Range{Lo: 0, Hi: b.Len()})
	if err != nil {
		return svcBatch{}, err
	}
	body, err := json.Marshal(map[string]any{"kind": b.Kind(), "payload": payload})
	return svcBatch{kind: kind, budgets: budgets, b: b, body: body}, err
}

// svcSchedule derives the seed batches and the timed schedule from the
// seed: the timed batches cycle through svcMix, resubmissions and
// overlaps pick their seed batch at random, and batch k is sent at a
// random moment of the slot [k, k+1)/svcRate.
func svcSchedule(seed int64, seconds int) (seeds, timed []svcBatch, err error) {
	for j := 0; j < svcSeedBatches; j++ {
		sb, err := newSvcBatch(seed, "seed", []float64{svcBudget(2 * j), svcBudget(2*j + 1)})
		if err != nil {
			return nil, nil, err
		}
		seeds = append(seeds, sb)
	}
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(svcRate * float64(seconds)))
	slot := time.Duration(float64(time.Second) / svcRate)
	for k := 0; k < n; k++ {
		j := svcSeedBatches + k
		var sb svcBatch
		switch kind := svcMix[k%len(svcMix)]; kind {
		case kindFresh:
			sb, err = newSvcBatch(seed, kind, []float64{svcBudget(2 * j), svcBudget(2*j + 1)})
		case kindResubmit:
			sb = seeds[rng.Intn(len(seeds))]
			sb.kind = kind
		case kindOverlap:
			s := seeds[rng.Intn(len(seeds))]
			sb, err = newSvcBatch(seed, kind, []float64{s.budgets[0], svcBudget(2 * j)})
		}
		if err != nil {
			return nil, nil, err
		}
		sb.at = time.Duration(k)*slot + time.Duration(rng.Int63n(int64(slot)))
		timed = append(timed, sb)
	}
	return seeds, timed, nil
}

// fleet is a service served over loopback HTTP with its worker fleet.
type fleet struct {
	url    string
	svc    *dist.Service
	cancel context.CancelFunc // ends the service's context
	srv    *http.Server
	wg     sync.WaitGroup
	mu     sync.Mutex
	errs   []error
}

// startFleet serves svc on a loopback port and starts workers zero-value
// workers against it (client is nil outside the traced run).
func startFleet(o opened, exec dist.Executor, client *http.Client) (*fleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{url: "http://" + ln.Addr().String(), svc: o.svc, cancel: o.cancel, srv: &http.Server{Handler: o.svc.Handler()}}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := f.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			f.fail(err)
		}
	}()
	for i := 0; i < workers; i++ {
		w := &dist.Worker{Coordinator: f.url, ID: fmt.Sprintf("w%d", i), Exec: exec, Client: client}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := w.Run(o.ctx); err != nil && !errors.Is(err, context.Canceled) {
				f.fail(err)
			}
		}()
	}
	return f, nil
}

func (f *fleet) fail(err error) {
	f.mu.Lock()
	f.errs = append(f.errs, err)
	f.mu.Unlock()
}

// stop ends the service (workers see done and exit), shuts the server
// down, waits for every goroutine, and closes the service and its store.
func (f *fleet) stop() error {
	f.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return errors.Join(append(f.errs, err, f.svc.Close())...)
}

// opened is a service restored over a reopened store.
type opened struct {
	st     *store.Store
	svc    *dist.Service
	ctx    context.Context // the service's lifetime
	cancel context.CancelFunc
}

// openService reopens the store and restores the service: the set-up a
// restarted service pays before it can take batches.
func openService(ctx context.Context, tr *tracer, dir string) (opened, error) {
	id := tr.begin("store.open", 0, "")
	st, err := store.Open(dir)
	tr.end(id)
	if err != nil {
		return opened{}, err
	}
	ctx, cancel := context.WithCancel(ctx)
	svc, err := dist.NewService(ctx, dist.ServiceConfig{Store: st})
	if err != nil {
		cancel()
		st.Close()
		return opened{}, err
	}
	id = tr.begin("store.restore", 0, "")
	svc.Restore()
	tr.end(id)
	return opened{st: st, svc: svc, ctx: ctx, cancel: cancel}, nil
}

// close releases a service that never served.
func (o opened) close() error {
	o.cancel()
	return o.svc.Close()
}

// outcome is what the load generator saw of one batch.
type outcome struct {
	latency, late time.Duration
	got           []byte
	cached        int
	err           error
}

// client is the load generator's side of the HTTP API.
type client struct {
	url  string
	http *http.Client
	tr   *atomic.Pointer[tracer] // nil pointer value outside the traced half
	st   *store.Store
	subs *submitLog
}

// send submits one batch at its due time and reads its result stream to
// the end. Latency runs from due, not from the actual send, so a late
// generator or a full connection pool counts against the batch.
func (c *client) send(ctx context.Context, sb svcBatch, due time.Time) outcome {
	var o outcome
	o.late = time.Since(due)
	tr := c.tr.Load()
	id := tr.begin("dist.submit", 0, sb.kind)
	var st dist.BatchStatus
	err := c.do(ctx, http.MethodPost, c.url+"/v1/batches", sb.body, func(body []byte) error {
		return json.Unmarshal(body, &st)
	})
	tr.end(id)
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	if tr != nil {
		c.subs.note(st.ID, time.Now())
	}
	o.cached = st.ItemsCachedJournal + st.ItemsCachedIndex
	err = c.do(ctx, http.MethodGet, c.url+"/v1/batches/"+st.ID+"/results", nil, func(body []byte) error {
		o.got = body
		return nil
	})
	o.latency = time.Since(due)
	if err != nil {
		o.err = fmt.Errorf("results: %w", err)
		return o
	}
	if sb.kind == kindResubmit && tr != nil {
		id := tr.begin("store.replay", 0, st.ID)
		_, _, err := c.st.Replay(st.ID)
		tr.end(id)
		o.err = err
	}
	return o
}

// do runs one request and hands a 2xx body to read.
func (c *client) do(ctx context.Context, method, url string, body []byte, read func([]byte) error) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return read(data)
}

// submitLog pairs each batch's admission with the start of its first
// unit, for dist.queue_wait.
type submitLog struct {
	mu        sync.Mutex
	submitted map[string]time.Time
	firstExec map[string]time.Time
}

func newSubmitLog() *submitLog {
	return &submitLog{submitted: make(map[string]time.Time), firstExec: make(map[string]time.Time)}
}

func (l *submitLog) note(id string, t time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.submitted[id]; !ok {
		l.submitted[id] = t
	}
}

func (l *submitLog) exec(id string, t time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.firstExec[id]; !ok || t.Before(prev) {
		l.firstExec[id] = t
	}
}

// spanTransport records the workers' lease and result round trips as
// spans while a tracer is live, and counts leases that found no unit.
type spanTransport struct {
	base          http.RoundTripper
	tr            *atomic.Pointer[tracer]
	leases, empty atomic.Int64
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.tr.Load()
	name := map[string]string{"/v1/lease": "dist.lease", "/v1/result": "dist.result_post"}[req.URL.Path]
	if tr == nil || name == "" {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err == nil && name == "dist.lease" {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var lease struct {
			Unit json.RawMessage `json:"unit"`
		}
		if json.Unmarshal(body, &lease) == nil {
			t.leases.Add(1)
			if len(lease.Unit) == 0 || string(lease.Unit) == "null" {
				t.empty.Add(1)
			}
		}
	}
	tr.add(name, 0, req.URL.Query().Get("batch"), start, time.Now())
	return resp, err
}

func runService(ctx context.Context, r *runner) error {
	seed := r.opts.seed
	seeds, timed, err := svcSchedule(seed, r.opts.seconds)
	if err != nil {
		return err
	}
	// Untimed: build the designs and profiles the batches use (the
	// traced run attributes them), then fill the store with the seed
	// batches through the service itself.
	id := r.tr.begin("setup", 0, "")
	if err := warmDesigns(ctx, r.tr, id, orgs(svcL1KB, svcL2KB)); err != nil {
		return err
	}
	pid := r.tr.begin("profile.build", id, "")
	_, err = profile.BuildSuiteMatricesCtx(ctx, trace.Suites(seed), []int{svcL1KB[0] * cachecfg.KB}, []int{svcL2KB[0] * cachecfg.KB}, seeds[0].b.ConfigAt(0).Accesses)
	r.tr.end(pid)
	r.tr.end(id)
	if err != nil {
		return err
	}
	dir := filepath.Join(r.dir, "store")
	fillOut, err := fill(ctx, dir, seeds)
	if err != nil {
		return err
	}

	var setups []float64
	var o opened
	for rep := 0; rep < svcSetupReps; rep++ {
		if rep > 0 {
			if err := o.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if o, err = openService(ctx, r.tr, dir); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))

	var live atomic.Pointer[tracer]
	subs := newSubmitLog()
	exec := dist.RegistryExecutor(0)
	var workerClient *http.Client
	transport := &spanTransport{base: http.DefaultTransport, tr: &live}
	if r.tr != nil {
		base := exec
		exec = func(ctx context.Context, u dist.Unit) ([][]byte, error) {
			start := time.Now()
			lines, err := base(ctx, u)
			if tr := live.Load(); tr != nil {
				tr.add("dist.unit_exec", 0, u.Batch, start, time.Now())
				subs.exec(u.Batch, start)
			}
			return lines, err
		}
		workerClient = &http.Client{Transport: transport}
	}
	f, err := startFleet(o, exec, workerClient)
	if err != nil {
		o.close()
		return err
	}
	c := &client{
		url:  f.url,
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}},
		tr:   &live,
		st:   o.st,
		subs: subs,
	}
	out, elapsed, late, peak := openLoop(ctx, c, timed, r.tr)
	if err := f.stop(); err != nil {
		return fmt.Errorf("service shutdown: %w", err)
	}

	if err := checkStreams(ctx, r, seeds, fillOut, timed, out); err != nil {
		return err
	}
	var lat, untracedLat, tracedLat []float64
	items, cached, total := 0, 0, 0
	for k, sb := range timed {
		l := ms(out[k].latency)
		lat = append(lat, l)
		if k < len(timed)/2 {
			untracedLat = append(untracedLat, l)
		} else {
			tracedLat = append(tracedLat, l)
		}
		if out[k].err == nil {
			items += sb.b.Len()
		}
		cached += out[k].cached
		total += sb.b.Len()
	}
	r.set("items_per_s", float64(items)/elapsed.Seconds())
	r.set("batch_p50_ms", median(lat))
	r.set("batch_p90_ms", quantile(lat, 0.9))
	r.set("peak_heap_mb", peak)
	r.record.BatchSamples = len(lat)
	r.record.LateP50MS = median(late)
	r.record.LateP90MS = quantile(late, 0.9)
	r.record.LateMaxMS = quantile(late, 1)
	r.set("store.cached_ratio", ratio(float64(cached), float64(total)))
	if r.tr == nil {
		return nil
	}
	r.set("bench.trace_overhead_pct", 100*(median(tracedLat)/median(untracedLat)-1))
	r.set("dist.lease_empty_ratio", ratio(float64(transport.empty.Load()), float64(transport.leases.Load())))
	for id, t := range subs.firstExec {
		if s, ok := subs.submitted[id]; ok {
			r.tr.add("dist.queue_wait", 0, id, s, t)
		}
	}
	if err := sampleItems(ctx, r, seeds[0].b, 1, svcSampleReps); err != nil {
		return err
	}
	return designProbe(ctx, r, orgs(svcL1KB, svcL2KB))
}

// checkStreams compares every result stream the service sent with the
// in-process work.Run bytes of the same batch, computed after the timed
// phase once per distinct batch. At the default seed the seed batches'
// reference bytes must also match the pinned hash, or every seed batch
// counts as failed.
func checkStreams(ctx context.Context, r *runner, seeds []svcBatch, fillOut []outcome, timed []svcBatch, out []outcome) error {
	refs := make(map[*grid.Batch][]byte)
	ref := func(b *grid.Batch) ([]byte, error) {
		if want, ok := refs[b]; ok {
			return want, nil
		}
		var buf bytes.Buffer
		if err := work.Run(ctx, b, work.Options{Workers: 1}, &buf); err != nil {
			return nil, fmt.Errorf("in-process reference: %w", err)
		}
		refs[b] = buf.Bytes()
		return refs[b], nil
	}
	var pinned bytes.Buffer
	for _, sb := range seeds {
		want, err := ref(sb.b)
		if err != nil {
			return err
		}
		pinned.Write(want)
	}
	pinErr := ""
	if got := sha256Hex(pinned.Bytes()); r.opts.seed == defaultSeed && got != svcPinned {
		pinErr = "reference output (sha256 " + got + ") differs from the pinned hash"
	}
	check := func(sb svcBatch, o outcome, pinErr string) error {
		want, err := ref(sb.b)
		if err != nil {
			return err
		}
		switch {
		case o.err != nil:
			r.tally.add(1, 1, sb.kind+" batch: "+o.err.Error())
		case !bytes.Equal(o.got, want):
			r.tally.add(1, 1, sb.kind+" batch stream differs from in-process work.Run")
		case pinErr != "":
			r.tally.add(1, 1, sb.kind+" batch: "+pinErr)
		default:
			r.tally.add(1, 0, "")
		}
		return nil
	}
	for j, sb := range seeds {
		if err := check(sb, fillOut[j], pinErr); err != nil {
			return err
		}
	}
	for k, sb := range timed {
		if err := check(sb, out[k], ""); err != nil {
			return err
		}
	}
	return nil
}

// fill runs the seed batches through a service over a fresh store and
// closes it again, leaving the store populated.
func fill(ctx context.Context, dir string, seeds []svcBatch) ([]outcome, error) {
	o, err := openService(ctx, nil, dir)
	if err != nil {
		return nil, err
	}
	f, err := startFleet(o, dist.RegistryExecutor(0), nil)
	if err != nil {
		o.close()
		return nil, err
	}
	c := &client{url: f.url, http: &http.Client{Transport: &http.Transport{}}, tr: new(atomic.Pointer[tracer]), st: o.st, subs: newSubmitLog()}
	out := make([]outcome, len(seeds))
	for j, sb := range seeds {
		out[j] = c.send(ctx, sb, time.Now())
	}
	return out, f.stop()
}

// openLoop sends every batch at its scheduled time, whether or not
// earlier ones have finished, and waits for all of them. The tracer goes
// live for the second half of the schedule, so the traced run compares
// its two halves for the tracing overhead. It returns each batch's
// outcome, the timed phase's length (first due time to last result),
// each send's lateness in ms, and the peak live heap in MB.
func openLoop(ctx context.Context, c *client, timed []svcBatch, tr *tracer) ([]outcome, time.Duration, []float64, float64) {
	out := make([]outcome, len(timed))
	late := make([]float64, len(timed))
	heap := startHeapPeak()
	start := time.Now()
	var wg sync.WaitGroup
	for k, sb := range timed {
		if k == len(timed)/2 && tr != nil {
			c.tr.Store(tr)
		}
		due := start.Add(sb.at)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
			case <-t.C:
			}
			t.Stop()
		}
		wg.Add(1)
		go func(k int, sb svcBatch, due time.Time) {
			defer wg.Done()
			out[k] = c.send(ctx, sb, due)
			late[k] = ms(out[k].late)
		}(k, sb, due)
	}
	wg.Wait()
	elapsed := time.Since(start)
	c.tr.Store(nil)
	peak := heap.take()
	heap.Stop()
	return out, elapsed, late, peak
}
