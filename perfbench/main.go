// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload in a fresh process, checks its output
// bytes, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	bash perfbench/run.sh --workload grid-analytical --seed 7 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. --trace 1 is the separate traced run: it records spans around the
// benchmark's own calls into each layer, keeps them in memory, writes them
// to .bench_build/perfbench/ at exit, and reports the per-layer metrics and
// the tracing overhead. BENCHMARK.json at the repository root declares both
// metric sets; README.md here maps each per-layer metric to the end-to-end
// metric and workload it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/exp"
)

// workers is the load's concurrency: work.Options.Workers for the grid
// and figure workloads, and the worker fleet and client connections of
// the service workload. It matches the two vCPUs the benchmark is sized
// for; the system under test otherwise runs at its defaults, so a change
// to a default is measured rather than hidden.
const workers = 2

// defaultSeed is the seed whose output hashes are pinned.
const defaultSeed = 1

// runDeadline bounds one invocation; the benchmark contract allows 180s.
const runDeadline = 170 * time.Second

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	setupOnly bool
}

// metricDef declares one reported metric. A per-layer metric derived
// from spans names the span whose self times give its value and the
// quantile of them it reports; the others are set by the workloads.
type metricDef struct {
	name, unit string
	span       string
	q          float64
}

// endToEnd are the metrics of a --trace 0 run, for every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "items_per_s", unit: "1/s"},
	{name: "batch_p50_ms", unit: "ms"},
	{name: "batch_p90_ms", unit: "ms"},
	{name: "peak_heap_mb", unit: "MB"},
}

// perLayer are the metrics of a --trace 1 run, for every workload; a
// layer the workload does not call reports 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"core.design_ms", "ms", "core.shared_design", 0.5},
		{"charlib.characterize_ms", "ms", "charlib.characterize", 0.5},
		{"model.fit_ms", "ms", "model.fit", 0.5},
		{"profile.build_ms", "ms", "profile.build", 0.5},
		{"profile.matrix_us", "us", "profile.matrix", 0.5},
		{"trace.gen_ms", "ms", "trace.gen", 0.5},
		{"sim.matrix_ms", "ms", "sim.matrix", 0.5},
		{"opt.optimize_l2_us.s2.p50", "us", "opt.optimize_l2.s2", 0.5},
		{"opt.optimize_l2_us.s2.p90", "us", "opt.optimize_l2.s2", 0.9},
		{"opt.optimize_l2_us.s3.p50", "us", "opt.optimize_l2.s3", 0.5},
		{"opt.optimize_l2_us.s3.p90", "us", "opt.optimize_l2.s3", 0.9},
		{"scenario.encode_us", "us", "scenario.encode", 0.5},
		{"grid.run_item_us.p50", "us", "grid.run_item", 0.5},
		{"grid.run_item_us.p90", "us", "grid.run_item", 0.9},
		{name: "grid.phase_cover_ratio", unit: "ratio"},
		{name: "work.driver_us_per_item", unit: "us"},
		{name: "work.busy_ratio", unit: "ratio"},
		{name: "work.alloc_kb_per_item", unit: "KB"},
	}
	for _, e := range exp.Experiments() {
		defs = append(defs, metricDef{"exp.item_ms." + e.ID, "ms", "exp.item." + e.ID, 0.5})
	}
	return append(defs,
		metricDef{"dist.submit_ms", "ms", "dist.submit", 0.5},
		metricDef{"dist.queue_wait_ms", "ms", "dist.queue_wait", 0.5},
		metricDef{"dist.lease_ms", "ms", "dist.lease", 0.5},
		metricDef{name: "dist.lease_empty_ratio", unit: "ratio"},
		metricDef{"dist.result_post_ms", "ms", "dist.result_post", 0.5},
		metricDef{"dist.unit_exec_ms", "ms", "dist.unit_exec", 0.5},
		metricDef{"store.open_ms", "ms", "store.open", 0.5},
		metricDef{"store.restore_ms", "ms", "store.restore", 0.5},
		metricDef{"store.replay_ms", "ms", "store.replay", 0.5},
		metricDef{name: "store.cached_ratio", unit: "ratio"},
		metricDef{name: "load.batch_samples", unit: "count"},
		metricDef{name: "bench.trace_overhead_pct", unit: "%"},
		metricDef{name: "host.steal_pct", unit: "%"},
	)
}

// workload is one named workload. run performs its set-up, its timed
// phase and its output check, filling r.values with what it measured;
// setup, where set-up is timed in fresh child processes, is the set-up
// alone (--setup-only).
type workload struct {
	run   func(ctx context.Context, r *runner) error
	setup func(ctx context.Context, o options) error
}

// workloads are the named workloads; BENCHMARK.json says why each exists.
var workloads = map[string]workload{
	"grid-analytical": {run: gridAnalytical.run, setup: gridAnalytical.setupOnly},
	"service-mixed":   {run: runService},
	"paper-figures":   {run: runFigures, setup: figuresSetupOnly},
}

// runner is the state of one invocation.
type runner struct {
	opts   options
	tr     *tracer // nil in the untraced run
	tally  tally
	values map[string]float64
	record runRecord
	dir    string // scratch directory inside the checkout
}

func (r *runner) set(name string, v float64) { r.values[name] = v }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w := workloads[o.workload]
	// An interrupted run cancels its context, so set-up children are
	// killed and waited for and the scratch directory is removed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	if o.setupOnly {
		if err := w.setup(ctx, o); err != nil {
			fmt.Fprintln(stderr, "perfbench: setup:", err)
			return 1
		}
		fmt.Fprintln(stdout, setupReady)
		return 0
	}
	res, err := execute(ctx, o, w, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.IntVar(&o.seconds, "seconds", 30, "length of the timed phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "run the workload's set-up and exit (set-up timing child)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return o, errors.New("--seconds must be at least 1")
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = traceFlag == 1
	if o.setupOnly && workloads[o.workload].setup == nil {
		return o, fmt.Errorf("workload %q measures set-up in process", o.workload)
	}
	return o, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs workload w and assembles the result line.
func execute(ctx context.Context, o options, w workload, stdout io.Writer) (result, error) {
	r := &runner{opts: o, values: make(map[string]float64), record: newRunRecord(o)}
	if o.trace {
		r.tr = newTracer()
	}
	r.dir = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(r.dir)

	steal := startSteal()
	err := w.run(ctx, r)
	r.record.StealPct = steal.pct()
	if err == nil {
		err = ctx.Err() // interrupted or out of time: no result
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	r.set("host.steal_pct", max(r.record.StealPct, 0))
	r.set("load.batch_samples", float64(r.record.BatchSamples))

	rec, err := json.Marshal(r.record)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "run record: %s\n", rec)
	if r.tr != nil {
		path := filepath.Join(".bench_build", "perfbench",
			fmt.Sprintf("trace-%s-seed%d-%d.json", o.workload, o.seed, os.Getpid()))
		if err := r.tr.write(path, r.record); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer()
		spanMetrics(r, defs)
	}
	attempted, failed := r.tally.counts()
	res := result{Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !o.trace {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %s", d.name, strconv.FormatFloat(v, 'f', -1, 64))
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Correct = failed == 0 && attempted > 0
	return res, nil
}

// spanMetrics sets every span-derived per-layer metric of a traced run.
// A layer the workload never called has no spans and reports 0.
func spanMetrics(r *runner, defs []metricDef) {
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	for _, d := range defs {
		if d.span == "" {
			continue
		}
		unit := ms
		if d.unit == "us" {
			unit = us
		}
		r.set(d.name, quantile(scaled(selfByName(spans, self, d.span), unit), d.q))
	}
}
