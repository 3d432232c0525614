package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cachecfg"
	"repro/internal/grid"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/work"
)

// gridWorkload is a design-space grid run through work.Run, pass after
// pass, with the process-wide memos (shared designs, workload profiles)
// built in set-up.
type gridWorkload struct {
	l1KB, l2KB []int
	workloads  []string
	schemes    []int
	budgetsPS  []float64 // nil: each point's default budget
	fastMemory []bool
	name       string // point-name template
	// pinned is the hex SHA-256 of the workers=1 output at defaultSeed.
	pinned string
	// setupReps is how many fresh processes time the set-up.
	setupReps int
	// sampleEvery and sampleReps pick the items the traced run re-executes
	// phase by phase: every sampleEvery-th item, sampleReps times each.
	// The stride is chosen so the sample covers every scheme and workload.
	sampleEvery, sampleReps int
}

// gridAnalytical: per-item time is almost all the opt kernel; miss rates
// are lookups in the profile memo built during set-up.
var gridAnalytical = &gridWorkload{
	l1KB:        []int{8, 16, 32, 64},
	l2KB:        []int{256, 512, 1024, 2048},
	workloads:   []string{"spec2000", "specweb", "tpcc", "average"},
	schemes:     []int{2, 3},
	budgetsPS:   []float64{1900, 1950, 2000, 2050, 2100, 2150, 2200, 2250, 2300, 2350, 2400, 2450, 2500, 2550, 2600, 2650},
	fastMemory:  []bool{false, true},
	name:        "a-l1{l1_kb}-l2{l2_kb}-{workload}-s{scheme}-b{amat_budget_ps}-m{fast_memory}",
	pinned:      "adefdb8ea81a4fb6c5bf4f6376668b13fcb3f739ce9c8b51e557f08306fac48f",
	setupReps:   3,
	sampleEvery: 61,
	sampleReps:  3,
}

// expand builds the grid for a seed; the seed reaches every point through
// the base config.
func (g *gridWorkload) expand(seed int64) (*grid.Batch, error) {
	spec := grid.Spec{Grid: grid.Grid{
		Name: g.name,
		Axes: grid.Axes{
			L1KB:         g.l1KB,
			L2KB:         g.l2KB,
			Workload:     g.workloads,
			Scheme:       g.schemes,
			AMATBudgetPS: g.budgetsPS,
			FastMemory:   g.fastMemory,
		},
		Base: scenario.Config{Seed: seed, Fidelity: profile.FidelityAnalytical},
	}}
	return spec.Expand()
}

// setup builds what the timed phase must find warm: the shared design of
// every cache organisation, and the workload profiles.
func (g *gridWorkload) setup(ctx context.Context, tr *tracer, b *grid.Batch) error {
	id := tr.begin("setup", 0, "")
	defer tr.end(id)
	if err := warmDesigns(ctx, tr, id, orgs(g.l1KB, g.l2KB)); err != nil {
		return err
	}
	base := b.ConfigAt(0)
	pid := tr.begin("profile.build", id, "")
	defer tr.end(pid)
	_, err := profile.BuildSuiteMatricesCtx(ctx, trace.Suites(base.Seed),
		[]int{base.L1KB * cachecfg.KB}, []int{base.L2KB * cachecfg.KB}, base.Accesses)
	return err
}

func (g *gridWorkload) setupOnly(ctx context.Context, o options) error {
	b, err := g.expand(o.seed)
	if err != nil {
		return err
	}
	return g.setup(ctx, nil, b)
}

// timedBatch wraps a batch to time every RunItem; in a traced pass each
// item is also a span below parent. dur[i] is written only by the worker
// running item i and read after work.Run returns.
type timedBatch struct {
	work.Batch
	tr     *tracer
	parent int
	name   func(i int) string
	dur    []time.Duration
}

func (b *timedBatch) RunItem(ctx context.Context, i int) (json.RawMessage, error) {
	id := b.tr.begin(b.name(i), b.parent, strconv.Itoa(i))
	t0 := time.Now()
	line, err := b.Batch.RunItem(ctx, i)
	b.dur[i] = time.Since(t0)
	b.tr.end(id)
	return line, err
}

// passes is what a timed phase of whole-batch passes measured.
type passes struct {
	untraced, traced []time.Duration
	allocBytes       uint64 // allocated during untraced passes
	allocItems       int
	busy, wall       time.Duration // traced passes: time inside RunItem, and inside work.Run
	busyItems        int
	heapMB           []float64 // peak live heap of each untraced pass
}

// runPasses runs whole-batch passes until the timed phase is over,
// checking each pass's output. prepare builds each pass's batch inside
// the pass's time, so per-pass set-up a user pays every run (the figure
// workload's fresh environment) is measured; in a traced pass it gets the
// pass span as parent. In the traced run passes alternate untraced and
// traced, so the two can be compared for the tracing overhead.
func runPasses(ctx context.Context, r *runner, prepare func(ctx context.Context, tr *tracer, parent int) (work.Batch, error),
	itemSpan func(i int) string, ref reference) (passes, error) {
	var p passes
	var buf bytes.Buffer
	heap := startHeapPeak()
	start := time.Now()
	for pass := 0; ; pass++ {
		var tr *tracer
		pid := 0
		if r.tr != nil && pass%2 == 1 {
			tr = r.tr
			pid = tr.begin("pass", 0, fmt.Sprintf("pass-%d", pass))
		}
		buf.Reset()
		a0 := allocBytes()
		t0 := time.Now()
		b, err := prepare(ctx, tr, pid)
		if err != nil {
			heap.Stop()
			return p, err
		}
		n := b.Len()
		wid := tr.begin("work.run", pid, "")
		tb := &timedBatch{Batch: b, tr: tr, parent: wid, name: itemSpan, dur: make([]time.Duration, n)}
		t1 := time.Now()
		err = work.Run(ctx, tb, work.Options{Workers: workers}, &buf)
		t2 := time.Now()
		a1 := allocBytes()
		tr.end(wid)
		tr.end(pid)
		if err != nil {
			r.tally.add(n, n-len(splitLines(buf.Bytes())), err.Error())
			break
		}
		why := ""
		bad := ref.mismatches(buf.Bytes(), n)
		if bad > 0 {
			why = fmt.Sprintf("pass %d output (sha256 %s) differs from the reference", pass, sha256Hex(buf.Bytes()))
		}
		r.tally.add(n, bad, why)
		if tr != nil {
			p.traced = append(p.traced, t2.Sub(t0))
			for _, d := range tb.dur {
				p.busy += d
			}
			p.wall += t2.Sub(t1)
			p.busyItems += n
		} else {
			p.untraced = append(p.untraced, t2.Sub(t0))
			p.allocBytes += a1 - a0
			p.allocItems += n
		}
		if peak := heap.take(); tr == nil {
			p.heapMB = append(p.heapMB, peak)
		}
		if time.Since(start) >= time.Duration(r.opts.seconds)*time.Second && (r.tr == nil || pass >= 1) {
			break
		}
	}
	heap.Stop()
	if len(p.untraced) == 0 {
		return p, fmt.Errorf("no pass completed")
	}
	return p, nil
}

// report sets the metrics of a pass-based timed phase: the median over
// the untraced passes of a pass's rate and of its peak live heap (the
// peak of one pass is an extreme of the heap after each GC, so the median
// over passes is the steadier figure), and the median and 90th
// percentile of whole-pass times. A pass is the batch a user submits and
// waits on: the whole grid, or the whole registry. Quantiles of single
// items would mix different computations (schemes, workloads, artifacts)
// whose times form separate clusters, so their median falls on the edge
// of a cluster and jumps from run to run. The traced run adds driver and
// tracing-overhead figures.
func (p passes) report(r *runner, items int) {
	var rates []float64
	for _, d := range p.untraced {
		rates = append(rates, float64(items)/d.Seconds())
	}
	lat := scaled(p.untraced, ms)
	r.set("items_per_s", median(rates))
	r.set("batch_p50_ms", median(lat))
	r.set("batch_p90_ms", quantile(lat, 0.9))
	r.set("peak_heap_mb", median(p.heapMB))
	r.record.BatchSamples = len(lat)
	r.set("work.alloc_kb_per_item", ratio(float64(p.allocBytes)/1024, float64(p.allocItems)))
	if len(p.traced) > 0 {
		workerTime := float64(p.wall) * workers
		r.set("work.busy_ratio", ratio(float64(p.busy), workerTime))
		r.set("work.driver_us_per_item", ratio(us(time.Duration(workerTime)-p.busy), float64(p.busyItems)))
		r.set("bench.trace_overhead_pct", 100*(median(scaled(p.traced, ms))/median(lat)-1))
	}
}

// outputReference is what a batch's output is checked against: the pinned
// hash at the default seed, otherwise a sequential run made before the
// timed phase.
func outputReference(ctx context.Context, seed int64, pinned string, b work.Batch) (reference, error) {
	if seed == defaultSeed {
		return reference{pinned: pinned}, nil
	}
	var buf bytes.Buffer
	if err := work.Run(ctx, b, work.Options{Workers: 1}, &buf); err != nil {
		return reference{}, fmt.Errorf("sequential reference: %w", err)
	}
	return reference{want: buf.Bytes()}, nil
}

func (g *gridWorkload) run(ctx context.Context, r *runner) error {
	b, err := g.expand(r.opts.seed)
	if err != nil {
		return err
	}
	if err := g.setup(ctx, r.tr, b); err != nil {
		return err
	}
	if r.tr == nil {
		setups, err := childSetups(ctx, r.opts, g.setupReps)
		if err != nil {
			return err
		}
		r.set("setup_s", median(setups))
	}
	ref, err := outputReference(ctx, r.opts.seed, g.pinned, b)
	if err != nil {
		return err
	}
	p, err := runPasses(ctx, r, func(context.Context, *tracer, int) (work.Batch, error) { return b, nil },
		func(int) string { return "grid.run_item" }, ref)
	if err != nil {
		return err
	}
	p.report(r, b.Len())
	if r.tr == nil {
		return nil
	}
	if err := sampleItems(ctx, r, b, g.sampleEvery, g.sampleReps); err != nil {
		return err
	}
	return designProbe(ctx, r, orgs(g.l1KB, g.l2KB))
}

// sampleItems re-executes every every-th item of b phase by phase
// (reassemble), reps times, beside a timed RunItem of the same item. The
// reassembled line must equal RunItem's; grid.phase_cover_ratio reports
// how much of RunItem's time the phase spans account for.
func sampleItems(ctx context.Context, r *runner, b *grid.Batch, every, reps int) error {
	var itemTime time.Duration
	for i := 0; i < b.Len(); i += every {
		cfg := b.ConfigAt(i)
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			want, err := b.RunItem(ctx, i)
			itemTime += time.Since(t0)
			if err != nil {
				return err
			}
			pid := r.tr.begin("scenario.run", 0, cfg.Name)
			got, err := reassemble(ctx, r.tr, pid, cfg)
			r.tr.end(pid)
			if err != nil {
				return err
			}
			bad := 0
			if !bytes.Equal(got, want) {
				bad = 1
			}
			r.tally.add(1, bad, "reassembled line of "+cfg.Name+" differs from RunItem's")
		}
	}
	var phaseTime time.Duration
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	for _, s := range spans {
		if s.Name == "scenario.run" {
			phaseTime += s.dur() - self[s.ID]
		}
	}
	r.set("grid.phase_cover_ratio", ratio(float64(phaseTime), float64(itemTime)))
	return nil
}
