// Command sweepd distributes a sweep across processes and machines:
// `sweepd serve` coordinates — it splits the workload into units, leases
// them to workers over HTTP, and writes the reassembled NDJSON results to
// stdout in input order, byte-identical to what the sequential run would
// emit — and `sweepd work` executes: it leases units from a coordinator,
// rebuilds them through the work registry, runs them, and reports the
// result lines, until the batch is done. Run one serve and as many work
// processes as you have cores and machines.
//
// The workload is any registered payload kind: a scenario batch (the
// default; input as for cmd/scenario), a design-space grid (-grid
// spec.json — the document expands into its full factorial point product,
// and each work unit carries only the spec plus a point range, so the
// fleet re-expands deterministically instead of shipping every config),
// or, with -experiments, units of the experiment registry emitting the
// same {"id","ascii","csv"} frames as `figures -stream`.
//
// For experiment units the lease response declares the coordinator's
// environment scale (accesses/seed/MinR2/fidelity — the scale the batch
// hash pins); `sweepd work` verifies it against its own
// -quick/-accesses/-fidelity configuration and hard-fails on mismatch,
// so a misconfigured worker exits with a diagnostic instead of silently
// blending two simulation scales (or miss-matrix fidelities) into one
// result set.
//
// Both serve modes run the same coordinator, dist.Service. One-shot serve
// is a service holding its one batch over a single-journal store — the
// -checkpoint file, or a throwaway journal removed at exit — that stops
// once the batch is terminal, so idle workers are told the run is over.
// It is crash-tolerant on both sides: a worker that dies mid-unit loses
// only its lease (the unit is re-leased when the lease expires), and
// `serve -checkpoint F -resume` after a kill completes exactly the
// remainder — against the same journal format `scenario -checkpoint` and
// `figures -checkpoint` write. `sweepd journal` reassembles the complete
// ordered result set from such a journal, because the journal — not any
// one run's stdout — is the authoritative record across restarts.
//
// `sweepd serve -store DIR` runs the service long-lived over a
// content-addressed result store: batches arrive over POST /v1/batches
// (`sweepd submit`, which takes the same workload flags as serve and
// streams the ordered results back with -results), any number of them
// queue and run concurrently on one worker fleet, and every completed
// line lands in a content-addressed result store under DIR — so
// resubmitting an identical batch (or one overlapping a prior batch on
// individual items) is served from cache without re-executing anything,
// and restarting the service re-queues every stored batch exactly where
// it left off. See docs/wire-protocol.md for the batch API and
// docs/operations.md for the store layout.
//
// With -token on both sides the wire protocol requires `Authorization:
// Bearer <token>` (401 otherwise) — the minimum gate before a coordinator
// listens beyond one trusted host; put TLS in front for untrusted
// networks.
//
// SIGINT/SIGTERM end any subcommand cleanly (exit 130); -timeout bounds a
// run the same way.
//
// Usage:
//
//	sweepd serve -f examples/scenarios.json -addr :8080
//	sweepd serve -f big.json -units 64 -checkpoint big.journal -resume > results.ndjson
//	sweepd serve -grid examples/gridsweep/spec.json -units 32 > grid.ndjson
//	sweepd serve -experiments -ids fig1,fig2 -token s3cret
//	sweepd serve -store /var/lib/sweepd -addr :8080
//	sweepd work -coordinator http://host:8080
//	sweepd work -coordinator http://host:8080 -workers 4 -token s3cret -progress
//	sweepd submit -coordinator http://host:8080 -f examples/scenarios.json -results > results.ndjson
//	sweepd submit -coordinator http://host:8080 -grid spec.json -wait
//	sweepd journal -f big.json -checkpoint big.journal > results.ndjson
//	sweepd journal -grid examples/gridsweep/spec.json -checkpoint grid.journal > grid.ndjson
//	sweepd journal -stat -checkpoint big.journal
//
// Observability: the coordinator serves a fleet-wide operator probe on
// GET /v1/status (per-worker liveness, lease ages, straggler flags,
// throughput and ETA) and Prometheus metrics on GET /metrics, both behind
// -token; -metrics-addr on serve or work additionally serves the
// process's registry plus /debug/pprof on a separate, unauthenticated
// address. serve and work each emit a one-line JSON manifest to stderr
// when they end — batch hash, item counts, wall time, items/sec, outcome.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/dist"
	"repro/internal/dist/journal"
	"repro/internal/dist/store"
	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/work"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run dispatches the subcommands; it is the testable entry point.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	return cli.Dispatch(ctx, "sweepd", []cli.Command{
		{Name: "serve", Summary: "coordinate a distributed sweep and emit ordered NDJSON results", Run: runServe},
		{Name: "work", Summary: "lease and execute work units from a coordinator", Run: runWork},
		{Name: "submit", Summary: "submit a batch to a `serve -store` service and optionally stream its results", Run: runSubmit},
		{Name: "journal", Summary: "reassemble the ordered NDJSON result set from a checkpoint journal", Run: runJournal},
	}, args, stdin, stdout, stderr)
}

// inputOptions select the workload — the flags shared by serve and
// journal, which must both resolve the exact batch (and, for experiments,
// the exact environment scale) a checkpoint pins.
type inputOptions struct {
	file        string
	grid        string
	experiments bool
	ids         string
	quick       bool
	accesses    int
	fidelity    string
}

// registerInputFlags wires the workload-selection flags.
func registerInputFlags(fs *flag.FlagSet, o *inputOptions) {
	fs.StringVar(&o.file, "f", "", "scenario JSON file, single or batch (default stdin)")
	fs.StringVar(&o.grid, "grid", "", "grid spec JSON file; expands into the full design-space point product")
	fs.BoolVar(&o.experiments, "experiments", false, "work on experiment-registry units instead of a scenario batch")
	fs.StringVar(&o.ids, "ids", "", "comma-separated experiment IDs with -experiments (default: the whole registry)")
	fs.BoolVar(&o.quick, "quick", false, "pin the experiments batch to the quick environment scale (match the fleet and any figures checkpoint)")
	fs.IntVar(&o.accesses, "accesses", 0, "pin the experiments batch to this trace length (0 = profile default)")
	fs.StringVar(&o.fidelity, "fidelity", "", `pin the experiments batch to this miss-matrix fidelity: "trace" (default) or "analytical"`)
}

// experimentsEnv resolves the environment scale the input flags declare —
// the scale the batch hash pins, which must match the fleet's execution
// scale and any `figures -checkpoint` journal being resumed or replayed.
func experimentsEnv(o inputOptions) *exp.Env {
	env := exp.NewEnv()
	if o.quick {
		env = exp.NewQuickEnv()
	}
	if o.accesses > 0 {
		env.Accesses = o.accesses
	}
	env.Fidelity = o.fidelity
	return env
}

// loadWorkBatch resolves the selected workload into a work.Batch plus the
// item noun for diagnostics.
func loadWorkBatch(o inputOptions, stdin io.Reader) (work.Batch, string, error) {
	if o.experiments {
		// -ids selections are normalized to registry order, exactly as
		// `figures -only` selects — so the batch (and therefore the
		// checkpoint hash) is the same no matter how the IDs were typed,
		// and a `figures -checkpoint` journal replays here verbatim.
		registry := exp.Experiments()
		var ids []string
		if o.ids == "" {
			for _, x := range registry {
				ids = append(ids, x.ID)
			}
		} else {
			known := make(map[string]bool, len(registry))
			for _, x := range registry {
				known[x.ID] = true
			}
			want := make(map[string]bool)
			for _, id := range strings.Split(o.ids, ",") {
				if id = strings.TrimSpace(id); id == "" {
					continue
				} else if !known[id] {
					return nil, "", fmt.Errorf("unknown experiment id %q", id)
				}
				want[id] = true
			}
			for _, x := range registry {
				if want[x.ID] {
					ids = append(ids, x.ID)
				}
			}
		}
		b, err := exp.NewBatch(ids, experimentsEnv(o))
		return b, "experiments", err
	}
	if o.grid != "" {
		f, err := os.Open(o.grid)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		spec, err := grid.Load(f)
		if err != nil {
			return nil, "", err
		}
		b, err := spec.Expand()
		return b, "points", err
	}
	b, err := loadBatch(o.file, stdin)
	return b, "scenarios", err
}

// validateInput enforces the workload-flag pairing shared by serve and
// journal; false means a usage error was reported. Every mispairing is a
// hard error — silently ignoring a flag the operator named would run (or
// hash) a different workload than they asked for.
func validateInput(o inputOptions, stderr io.Writer) bool {
	switch {
	case !profile.ValidFidelity(o.fidelity):
		fmt.Fprintf(stderr, "sweepd: unknown -fidelity %q (want %q or %q)\n",
			o.fidelity, profile.FidelityTrace, profile.FidelityAnalytical)
		return false
	case o.ids != "" && !o.experiments:
		fmt.Fprintln(stderr, "sweepd: -ids requires -experiments")
		return false
	case (o.quick || o.accesses > 0 || o.fidelity != "") && !o.experiments:
		fmt.Fprintln(stderr, "sweepd: -quick/-accesses/-fidelity require -experiments (scenario batches and grids carry their own accesses and fidelity)")
		return false
	case o.file != "" && o.experiments:
		fmt.Fprintln(stderr, "sweepd: -f does not apply to -experiments (use -ids to select artifacts)")
		return false
	case o.grid != "" && o.experiments:
		fmt.Fprintln(stderr, "sweepd: -grid does not apply to -experiments")
		return false
	case o.grid != "" && o.file != "":
		fmt.Fprintln(stderr, "sweepd: -grid and -f are mutually exclusive (one workload per sweep)")
		return false
	}
	return true
}

// serveOptions are the coordinator flags.
type serveOptions struct {
	input       inputOptions
	addr        string
	units       int
	lease       time.Duration
	checkpoint  string
	resume      bool
	store       string
	token       string
	progress    bool
	timeout     time.Duration
	metricsAddr string
}

func runServe(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o serveOptions
	registerInputFlags(fs, &o.input)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address for the worker protocol")
	fs.IntVar(&o.units, "units", 0, "work units to split the batch into (0 = GOMAXPROCS); more units = finer re-lease granularity")
	fs.DurationVar(&o.lease, "lease", 30*time.Second, "lease TTL; a worker silent this long forfeits its unit")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "journal completed lines to this file")
	fs.BoolVar(&o.resume, "resume", false, "replay the -checkpoint journal and serve only unfinished work")
	fs.StringVar(&o.store, "store", "", "run as a multi-batch service backed by this result-store directory; batches arrive via `sweepd submit`, and restart resumes every stored batch")
	fs.StringVar(&o.token, "token", "", "shared secret; workers must send it as Authorization: Bearer")
	fs.BoolVar(&o.progress, "progress", false, "report per-item completion on stderr")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort the run after this duration (0 = unbounded)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "also serve /metrics and /debug/pprof, unauthenticated, on this address (e.g. 127.0.0.1:9090; empty = off — workers' /metrics on -addr stays token-gated)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.store != "" {
		return runServeStore(ctx, o, stderr)
	}
	if o.resume && o.checkpoint == "" {
		fmt.Fprintln(stderr, "sweepd: -resume requires -checkpoint")
		return 2
	}
	if !validateInput(o.input, stderr) {
		return 2
	}
	ctx, cancel := cli.WithTimeout(ctx, o.timeout)
	defer cancel()

	b, noun, err := loadWorkBatch(o.input, stdin)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	var tickerW io.Writer
	if o.progress {
		tickerW = stderr
	}
	prog := cli.NewProgress("sweepd", noun, tickerW)
	start := time.Now()
	hash, err := b.Hash()
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	man := cli.Manifest{Tool: "sweepd serve", Kind: b.Kind(), BatchSHA256: hash,
		Fidelity: work.FidelityOf(b), Items: b.Len(), ItemsRun: b.Len()}
	var runErr error
	defer func() {
		man.Finish(start, nil, runErr)
		cli.EmitManifest(stderr, man)
	}()
	fail := func(err error) int {
		runErr = err
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}

	// The one batch runs on a service over a single-journal store: the
	// -checkpoint file, or a throwaway journal removed at exit.
	path := o.checkpoint
	if path == "" {
		f, err := os.CreateTemp("", "sweepd-*.journal")
		if err != nil {
			return fail(err)
		}
		path = f.Name()
		f.Close()
		defer os.Remove(path)
	}
	// Cancelled once the batch is terminal, so leases answer done and the
	// fleet exits.
	svcCtx, stopService := context.WithCancel(ctx)
	defer stopService()
	svc, err := dist.NewService(svcCtx, dist.ServiceConfig{
		Store: store.OpenJournal(path, o.resume), Units: o.units, LeaseTTL: o.lease,
	})
	if err != nil {
		return fail(err)
	}
	defer svc.Close()
	st, _, err := svc.Submit(b)
	if err != nil {
		return fail(err)
	}
	if resumed := st.ItemsCachedJournal; resumed > 0 {
		fmt.Fprintf(stderr, "sweepd: resuming, %d/%d %s already journaled\n", resumed, st.N, noun)
		man.ItemsResumed = resumed
		man.ItemsRun = st.N - resumed
	}
	addr, stopHTTP, err := serveHTTP(svc, o, stderr)
	if err != nil {
		return fail(err)
	}
	defer stopHTTP()
	fmt.Fprintf(stderr, "sweepd: serving %d %s on http://%s\n", st.N, noun, addr)

	hook := prog.Hook()
	emitted := 0
	runErr = svc.Results(ctx, st.ID, func(line []byte, cached bool) error {
		if cached {
			return nil // a previous run emitted it
		}
		// Full slice expression: append must copy, never write into the
		// memory the line shares with the result body it came from.
		if _, err := stdout.Write(append(line[:len(line):len(line)], '\n')); err != nil {
			return err
		}
		emitted++
		hook(emitted, man.ItemsRun)
		return nil
	})
	stopService()
	if runErr == nil {
		if final, _ := svc.Batch(st.ID); final.State != dist.BatchDone {
			runErr = fmt.Errorf("batch %s", final.State)
			if final.Error != "" {
				runErr = fmt.Errorf("batch %s: %s", final.State, final.Error)
			}
		}
	}
	if runErr != nil {
		return cli.Report("sweepd", runErr, prog, stderr)
	}
	return 0
}

// readHeaderTimeout bounds how long a client may take to send request
// headers, so idle or slow connections cannot pin server goroutines.
const readHeaderTimeout = 10 * time.Second

// shutdownGrace bounds how long stopping the listener waits for
// in-flight requests — above all the result post that completed the
// batch, whose 200 must reach the worker — before closing them.
const shutdownGrace = 5 * time.Second

// serveHTTP exposes the service on -addr behind the -token gate, plus
// the unauthenticated debug listener when -metrics-addr is set. It
// returns the bound -addr and a stop func that closes both, letting
// in-flight requests finish first. Stop the service context before
// calling it, so open result streams end instead of holding it up.
func serveHTTP(svc *dist.Service, o serveOptions, stderr io.Writer) (net.Addr, func(), error) {
	stopMetrics := func() {}
	if o.metricsAddr != "" {
		// The debug listener serves the service's own registry — the same
		// families the token-gated /metrics on -addr exposes — plus pprof,
		// on an address the operator keeps off the worker network.
		maddr, stop, err := obs.Serve(o.metricsAddr, svc.Metrics())
		if err != nil {
			return nil, nil, err
		}
		stopMetrics = stop
		fmt.Fprintf(stderr, "sweepd: metrics on http://%s/metrics\n", maddr)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		stopMetrics()
		return nil, nil, err
	}
	srv := &http.Server{Handler: dist.RequireToken(o.token, svc.Handler()), ReadHeaderTimeout: readHeaderTimeout}
	// Serve returns ErrServerClosed once stop runs; the run's verdict
	// comes from the service, not the accept loop.
	//lint:allow nofanout HTTP accept loop must not block the run; lifecycle is owned by the returned stop, not the sweep engine
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			_ = srv.Close()
		}
		stopMetrics()
	}, nil
}

// runServeStore is `sweepd serve -store DIR`: the multi-batch service.
// Unlike one-shot serve there is no workload on the command line —
// batches arrive over POST /v1/batches (`sweepd submit`) and their
// results live in the store, so the process emits no NDJSON on stdout
// and runs until a signal (or -timeout) stops it. Every batch the store
// has ever admitted is re-queued on start, so a crashed or restarted
// service resumes exactly where the store left off.
func runServeStore(ctx context.Context, o serveOptions, stderr io.Writer) int {
	in := o.input
	switch {
	case in.file != "" || in.grid != "" || in.experiments || in.ids != "":
		fmt.Fprintln(stderr, "sweepd: -store mode takes no workload flags (-f/-grid/-experiments/-ids); submit batches with `sweepd submit`")
		return 2
	case o.checkpoint != "" || o.resume:
		fmt.Fprintln(stderr, "sweepd: -store replaces -checkpoint/-resume (the store journals every batch; restart resumes automatically)")
		return 2
	case !profile.ValidFidelity(in.fidelity):
		fmt.Fprintf(stderr, "sweepd: unknown -fidelity %q (want %q or %q)\n",
			in.fidelity, profile.FidelityTrace, profile.FidelityAnalytical)
		return 2
	}
	if in.quick || in.accesses > 0 || in.fidelity != "" {
		// The scale flags pin the process environment that experiment
		// batches decoded from submissions hash against — the whole fleet
		// (and every submitter) must declare the same scale.
		exp.SetProcessEnv(func() *exp.Env { return experimentsEnv(in) })
	}
	ctx, cancel := cli.WithTimeout(ctx, o.timeout)
	defer cancel()

	st, err := store.Open(o.store)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	svc, err := dist.NewService(ctx, dist.ServiceConfig{
		Store: st, Units: o.units, LeaseTTL: o.lease,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "sweepd: "+format+"\n", args...)
		},
	})
	if err != nil {
		st.Close()
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	defer svc.Close()
	if active, complete := svc.Restore(); active+complete > 0 {
		fmt.Fprintf(stderr, "sweepd: restored %d batches from %s (%d with work remaining)\n",
			active+complete, o.store, active)
	}
	addr, stopHTTP, err := serveHTTP(svc, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	defer stopHTTP()
	fmt.Fprintf(stderr, "sweepd: serving batch queue on http://%s (store %s)\n", addr, o.store)

	start := time.Now()
	<-ctx.Done()
	// A signal (or -timeout) is the service's normal shutdown; summarize
	// what this process did in the manifest.
	status := svc.Status()
	man := cli.Manifest{Tool: "sweepd serve"}
	for _, b := range status.Batches {
		man.Items += b.N
		man.ItemsRun += b.ItemsExecuted
		man.ItemsResumed += b.ItemsCachedJournal + b.ItemsCachedIndex
	}
	man.Finish(start, nil, nil)
	cli.EmitManifest(stderr, man)
	fmt.Fprintf(stderr, "sweepd: service stopped, store %s holds %d batches\n", o.store, status.Store.Batches)
	return 0
}

// submitOptions are the `sweepd submit` flags.
type submitOptions struct {
	input       inputOptions
	coordinator string
	token       string
	wait        bool
	results     bool
	timeout     time.Duration
}

// runSubmit is `sweepd submit`: the client of a `serve -store` service.
// It resolves a workload exactly as serve does (same flags, same hashes),
// posts it to the service, and acknowledges the batch ID and cache
// attribution on stderr. With -results it then streams the batch's
// input-ordered NDJSON to stdout — byte-identical to the sequential run,
// whether the lines were executed now or served from the store. With
// -wait it polls until the batch reaches a terminal state. Either way the
// exit status reflects the batch: 0 done, 1 failed or cancelled.
func runSubmit(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o submitOptions
	registerInputFlags(fs, &o.input)
	fs.StringVar(&o.coordinator, "coordinator", "", "service base URL, e.g. http://host:8080 (required)")
	fs.StringVar(&o.token, "token", "", "shared secret sent as Authorization: Bearer (match the service's -token)")
	fs.BoolVar(&o.wait, "wait", false, "poll until the batch reaches a terminal state")
	fs.BoolVar(&o.results, "results", false, "stream the batch's ordered NDJSON results to stdout (implies waiting for completion)")
	fs.DurationVar(&o.timeout, "timeout", 0, "give up after this duration (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.coordinator == "" {
		fmt.Fprintln(stderr, "sweepd: submit requires -coordinator")
		return 2
	}
	if !validateInput(o.input, stderr) {
		return 2
	}
	ctx, cancel := cli.WithTimeout(ctx, o.timeout)
	defer cancel()

	b, noun, err := loadWorkBatch(o.input, stdin)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	payload, err := b.MarshalRange(sweep.Range{Lo: 0, Hi: b.Len()})
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	body, err := json.Marshal(map[string]json.RawMessage{
		"kind":    json.RawMessage(fmt.Sprintf("%q", b.Kind())),
		"payload": payload,
	})
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}

	st, err := submitRequest(ctx, o, http.MethodPost, "/v1/batches", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	cached := st.ItemsCachedJournal + st.ItemsCachedIndex
	fmt.Fprintf(stderr, "sweepd: batch %s: %d %s, %d cached, state %s\n",
		st.ID, st.N, noun, cached, st.State)

	if o.results {
		if err := streamResults(ctx, o, st.ID, stdout); err != nil {
			fmt.Fprintln(stderr, "sweepd:", err)
			return 1
		}
	}
	if o.results || o.wait {
		final, err := waitTerminal(ctx, o, st.ID)
		if err != nil {
			fmt.Fprintln(stderr, "sweepd:", err)
			return 1
		}
		if final.State != dist.BatchDone {
			fmt.Fprintf(stderr, "sweepd: batch %s %s", final.ID, final.State)
			if final.Error != "" {
				fmt.Fprintf(stderr, ": %s", final.Error)
			}
			fmt.Fprintln(stderr)
			return 1
		}
		fmt.Fprintf(stderr, "sweepd: batch %s done (%d executed, %d cached)\n",
			final.ID, final.ItemsExecuted, final.ItemsCachedJournal+final.ItemsCachedIndex)
	}
	return 0
}

// submitRequest performs one authenticated JSON request against the
// service and decodes the BatchStatus it answers with.
func submitRequest(ctx context.Context, o submitOptions, method, path string, body io.Reader) (dist.BatchStatus, error) {
	var st dist.BatchStatus
	req, err := http.NewRequestWithContext(ctx, method, o.coordinator+path, body)
	if err != nil {
		return st, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if o.token != "" {
		req.Header.Set("Authorization", "Bearer "+o.token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return st, err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return st, fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return st, fmt.Errorf("%s", resp.Status)
	}
	return st, json.Unmarshal(data, &st)
}

// streamResults copies the batch's ordered NDJSON result stream to out.
// The service holds the stream open while the batch runs, so this returns
// when every line is delivered (or the batch goes terminal early).
func streamResults(ctx context.Context, o submitOptions, id string, out io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, o.coordinator+"/v1/batches/"+id+"/results", nil)
	if err != nil {
		return err
	}
	if o.token != "" {
		req.Header.Set("Authorization", "Bearer "+o.token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("results: %s", resp.Status)
	}
	_, err = io.Copy(out, resp.Body)
	return err
}

// waitTerminal polls the batch until it leaves the queue.
func waitTerminal(ctx context.Context, o submitOptions, id string) (dist.BatchStatus, error) {
	for {
		st, err := submitRequest(ctx, o, http.MethodGet, "/v1/batches/"+id, nil)
		if err != nil || st.State == dist.BatchDone || st.State == dist.BatchFailed || st.State == dist.BatchCancelled {
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// workOptions are the worker flags.
type workOptions struct {
	coordinator string
	id          string
	workers     int
	poll        time.Duration
	token       string
	quick       bool
	accesses    int
	fidelity    string
	progress    bool
	timeout     time.Duration
	metricsAddr string
}

func runWork(ctx context.Context, args []string, _ io.Reader, _, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd work", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o workOptions
	fs.StringVar(&o.coordinator, "coordinator", "", "coordinator base URL, e.g. http://host:8080 (required)")
	fs.StringVar(&o.id, "id", "", "worker id (default hostname-pid)")
	fs.IntVar(&o.workers, "workers", 0, "concurrent items within a unit (0 = GOMAXPROCS)")
	fs.DurationVar(&o.poll, "poll", 200*time.Millisecond, "delay between lease attempts when the coordinator has nothing free")
	fs.StringVar(&o.token, "token", "", "shared secret sent as Authorization: Bearer (match the coordinator's -token)")
	fs.BoolVar(&o.quick, "quick", false, "execute experiment units against the quick environment (the whole fleet must agree)")
	fs.IntVar(&o.accesses, "accesses", 0, "execute experiment units at this trace length (0 = profile default; the whole fleet must agree)")
	fs.StringVar(&o.fidelity, "fidelity", "", `execute experiment units at this miss-matrix fidelity: "trace" (default) or "analytical" (the whole fleet must agree)`)
	fs.BoolVar(&o.progress, "progress", false, "report per-unit completion on stderr")
	fs.DurationVar(&o.timeout, "timeout", 0, "stop working after this duration (0 = unbounded)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve this worker's /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9091; empty = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.coordinator == "" {
		fmt.Fprintln(stderr, "sweepd: work requires -coordinator")
		return 2
	}
	if !profile.ValidFidelity(o.fidelity) {
		fmt.Fprintf(stderr, "sweepd: unknown -fidelity %q (want %q or %q)\n",
			o.fidelity, profile.FidelityTrace, profile.FidelityAnalytical)
		return 2
	}
	if o.id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		o.id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.quick || o.accesses > 0 || o.fidelity != "" {
		scale := inputOptions{quick: o.quick, accesses: o.accesses, fidelity: o.fidelity}
		exp.SetProcessEnv(func() *exp.Env { return experimentsEnv(scale) })
	}
	ctx, cancel := cli.WithTimeout(ctx, o.timeout)
	defer cancel()

	var reg *obs.Registry
	if o.metricsAddr != "" {
		reg = obs.NewRegistry()
		maddr, stopMetrics, err := obs.Serve(o.metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(stderr, "sweepd:", err)
			return 1
		}
		defer stopMetrics()
		fmt.Fprintf(stderr, "sweepd: metrics on http://%s/metrics\n", maddr)
	}

	start := time.Now()
	// A worker does not know the batch size; its manifest counts what this
	// process executed, accumulated as units are reported. OnUnit runs on
	// the worker's single lease loop, so plain fields are safe.
	man := cli.Manifest{Tool: "sweepd work"}
	w := &dist.Worker{
		Coordinator: o.coordinator,
		ID:          o.id,
		Exec:        dist.InstrumentedExecutor(o.workers, reg),
		Poll:        o.poll,
		Token:       o.token,
		// Hard-fail when the coordinator's declared experiment scale does
		// not match this process's -quick/-accesses configuration — a
		// mixed-scale fleet must be a loud error, not blended results.
		VerifyEnv: exp.VerifyScale,
	}
	w.OnUnit = func(u dist.Unit) {
		man.Kind = u.Kind
		man.Items += u.Range.Len()
		man.ItemsRun += u.Range.Len()
		if o.progress {
			fmt.Fprintf(stderr, "sweepd: %s finished unit %d (items %d-%d)\n", o.id, u.ID, u.Range.Lo, u.Range.Hi-1)
		}
	}
	err := w.Run(ctx)
	gone := errors.Is(err, dist.ErrCoordinatorGone)
	if gone {
		// The serve process exits the moment the last line is emitted;
		// an idle worker discovering that is the normal end of a sweep.
		err = nil
	}
	man.Finish(start, nil, err)
	cli.EmitManifest(stderr, man)
	switch {
	case gone:
		fmt.Fprintf(stderr, "sweepd: %s: coordinator gone, assuming the sweep ended\n", o.id)
	case err != nil:
		prog := cli.NewProgress("sweepd", "units", nil)
		return cli.Report("sweepd", err, prog, stderr)
	default:
		fmt.Fprintf(stderr, "sweepd: %s done\n", o.id)
	}
	return 0
}

// runJournal is `sweepd journal` — journal cat: it replays a checkpoint
// journal read-only, verifies it pins exactly the given workload (kind,
// content hash, item count), and writes the journaled NDJSON lines to
// stdout in input order. The journal, not any one run's stdout, is the
// authoritative record of a checkpointed sweep across restarts; this is
// how the complete result set is recovered from it.
//
// With -stat it instead prints a one-line JSON completion summary (kind,
// batch hash, items done/total, torn-tail flag) without reassembling —
// or even reading into memory — any result lines, and without needing
// the input batch at all: the summary describes whatever the journal
// itself pins. Exit status 0 when complete, 1 when not (so scripts can
// poll a checkpoint directly).
func runJournal(_ context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd journal", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var in inputOptions
	registerInputFlags(fs, &in)
	checkpoint := fs.String("checkpoint", "", "journal file to read (required)")
	partial := fs.Bool("partial", false, "exit 0 even when the journal is incomplete (emit what is journaled)")
	stat := fs.Bool("stat", false, "print a JSON completion summary instead of the result lines (no input batch needed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *checkpoint == "" {
		fmt.Fprintln(stderr, "sweepd: journal requires -checkpoint")
		return 2
	}
	if *stat {
		st, err := journal.Stat(*checkpoint)
		if err != nil {
			fmt.Fprintln(stderr, "sweepd:", err)
			return 1
		}
		line, err := json.Marshal(st)
		if err != nil {
			fmt.Fprintln(stderr, "sweepd:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !st.Complete && !*partial {
			return 1
		}
		return 0
	}
	if !validateInput(in, stderr) {
		return 2
	}
	b, noun, err := loadWorkBatch(in, stdin)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	done, err := work.ReplayJournal(*checkpoint, b)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	for i := 0; i < b.Len(); i++ {
		line, ok := done[i]
		if !ok {
			continue
		}
		// Full slice expression: append must copy, never write into the
		// memory the line shares with the result body it came from.
		if _, err := stdout.Write(append(line[:len(line):len(line)], '\n')); err != nil {
			fmt.Fprintln(stderr, "sweepd:", err)
			return 1
		}
	}
	if len(done) < b.Len() {
		fmt.Fprintf(stderr, "sweepd: journal incomplete: %d/%d %s journaled\n", len(done), b.Len(), noun)
		if !*partial {
			return 1
		}
	}
	return 0
}

// loadBatch reads a scenario document (single config or batch) and returns
// it as a batch — a single config becomes a batch of one, so sweepd serves
// any input `scenario` accepts.
func loadBatch(file string, stdin io.Reader) (scenario.Batch, error) {
	var r io.Reader = stdin
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return scenario.Batch{}, err
		}
		defer f.Close()
		r = f
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return scenario.Batch{}, err
	}
	if scenario.IsBatch(data) {
		return scenario.LoadBatch(bytes.NewReader(data))
	}
	cfg, err := scenario.Load(bytes.NewReader(data))
	if err != nil {
		return scenario.Batch{}, err
	}
	return scenario.Batch{Scenarios: []scenario.Config{cfg}}, nil
}
