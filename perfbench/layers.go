package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/cachecfg"
	"repro/internal/charlib"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/units"
)

// setupReady is the line a --setup-only child prints once its set-up is
// done; the parent times the child from start to this line.
const setupReady = "perfbench: setup ready"

// childSetups runs the workload's set-up in k fresh processes, one after
// another, and returns each one's seconds from process start to ready.
// A fresh process is the only way to time process-wide memos (shared
// designs, workload profiles) cold more than once.
func childSetups(ctx context.Context, o options, k int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		cmd := exec.CommandContext(ctx, exe, "--workload", o.workload,
			"--seed", strconv.FormatInt(o.seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		var ready time.Duration
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if sc.Text() == setupReady && ready == 0 {
				ready = time.Since(start)
			}
		}
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		if ready == 0 {
			return nil, errors.New("set-up child exited without reporting ready")
		}
		out = append(out, ready.Seconds())
	}
	return out, nil
}

// orgs returns the cache organisations of a set of L1 and L2 capacities
// in KB.
func orgs(l1KB, l2KB []int) []cachecfg.Config {
	var out []cachecfg.Config
	for _, kb := range l1KB {
		out = append(out, cachecfg.L1(kb*cachecfg.KB))
	}
	for _, kb := range l2KB {
		out = append(out, cachecfg.L2(kb*cachecfg.KB))
	}
	return out
}

// warmDesigns builds the process-wide shared design of every organisation
// on a pool of workers goroutines, as a sweep's first items would.
func warmDesigns(ctx context.Context, tr *tracer, parent int, cfgs []cachecfg.Config) error {
	_, err := sweep.MapCtx(ctx, len(cfgs), workers, func(ctx context.Context, i int) (struct{}, error) {
		id := tr.begin("core.shared_design", parent, cfgs[i].String())
		defer tr.end(id)
		_, err := core.SharedDesign(cfgs[i])
		return struct{}{}, err
	})
	return err
}

// designProbe rebuilds each organisation's design phase by phase through
// the public calls core.DesignCache makes — netlists, characterisation,
// then the leakage, delay and energy fits of every component — under a
// design.rebuild span with charlib.characterize and model.fit children.
// The rebuilt fits must equal the shared design's (already built, so the
// lookup is not timed); a difference is a failure.
func designProbe(ctx context.Context, r *runner, cfgs []cachecfg.Config) error {
	tech := core.SharedTechnology()
	for _, cfg := range cfgs {
		if err := ctx.Err(); err != nil {
			return err
		}
		shared, err := core.SharedDesign(cfg)
		if err != nil {
			return err
		}
		id := r.tr.begin("design.rebuild", 0, cfg.String())
		c, err := components.New(tech, cfg)
		if err != nil {
			return err
		}
		cid := r.tr.begin("charlib.characterize", id, cfg.String())
		samples, err := charlib.CharacterizeCache(c, charlib.DefaultGrid())
		r.tr.end(cid)
		if err != nil {
			return err
		}
		fid := r.tr.begin("model.fit", id, cfg.String())
		bad := 0
		for _, p := range components.Parts() {
			lm, _, err1 := model.FitLeakage(samples[p])
			dm, _, err2 := model.FitDelay(samples[p])
			em, _, err3 := model.FitEnergy(samples[p])
			if err := errors.Join(err1, err2, err3); err != nil {
				return err
			}
			want := shared.Model.Comps[p]
			if lm != want.Leak || dm != want.Delay || em != want.Energy {
				bad++
			}
		}
		r.tr.end(fid)
		r.tr.end(id)
		r.tally.add(1, min(bad, 1), "rebuilt design of "+cfg.String()+" differs from the shared design")
	}
	return nil
}

// reassemble re-executes one analytical scenario phase by phase through
// the public calls scenario.RunCtx makes, each under its own span below
// parent: the miss-rate matrix (profile.matrix), the shared designs,
// opt.optimize_l2.s<scheme>, opt.tuples, and scenario.encode. It returns
// the line it assembles, which must equal the item's RunItem line.
func reassemble(ctx context.Context, tr *tracer, parent int, cfg scenario.Config) ([]byte, error) {
	cfg = cfg.WithDefaults()
	req := cfg.Name
	l1Size, l2Size := cfg.L1KB*cachecfg.KB, cfg.L2KB*cachecfg.KB

	id := tr.begin("profile.matrix", parent, req)
	ms, err := profile.BuildSuiteMatricesCtx(ctx, suitesOf(cfg.Workload, cfg.Seed), []int{l1Size}, []int{l2Size}, cfg.Accesses)
	var avg *sim.MissMatrix
	if err == nil {
		avg, err = sim.Average(ms)
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	m1, m2 := avg.L1Local[l1Size], avg.L2Local[l1Size][l2Size]

	id = tr.begin("core.design_lookup", parent, req)
	l1d, err1 := core.SharedDesign(cachecfg.L1(l1Size))
	l2d, err2 := core.SharedDesign(cachecfg.L2(l2Size))
	tr.end(id)
	if err := errors.Join(err1, err2); err != nil {
		return nil, err
	}
	tech := core.SharedTechnology()
	memSpec := mem.DefaultDDR()
	if cfg.FastMemory {
		memSpec = mem.FastDDR()
	}
	tl := &opt.TwoLevel{L1: l1d.Model, L2: l2d.Model, M1: m1, M2: m2, Mem: memSpec}
	if err := tl.Validate(); err != nil {
		return nil, err
	}
	res := scenario.Result{Name: cfg.Name, M1: m1, M2: m2}
	a1 := components.Uniform(opt.DefaultOP())
	budget := units.FromPS(cfg.AMATBudgetPS)
	if budget == 0 {
		fast := tl.AMAT(a1, components.Uniform(device.OP(tech.VthMin, 10)))
		slow := tl.AMAT(a1, components.Uniform(device.OP(tech.VthMax, 14)))
		budget = (fast + slow) / 2
	}
	res.AMATBudgetPS = units.ToPS(budget)

	id = tr.begin(fmt.Sprintf("opt.optimize_l2.s%d", cfg.Scheme), parent, req)
	o, err := tl.OptimizeL2Ctx(ctx, opt.Scheme(cfg.Scheme), a1, core.SharedKnobGrid(), budget)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	res.L2Optimization.Feasible = o.Feasible
	if o.Feasible {
		res.L2Optimization.LeakageMW = units.ToMW(o.LeakageW)
		res.L2Optimization.AMATPS = units.ToPS(o.AMATS)
		res.L2Optimization.EnergyPJ = units.ToPJ(o.TotalEnergyJ)
		res.L2Optimization.CellKnobs = o.L2Assignment[components.PartCellArray].String()
		res.L2Optimization.PeriKnobs = o.L2Assignment[components.PartDecoder].String()
	}

	ms2 := &opt.MemorySystem{TwoLevel: *tl}
	for _, b := range cfg.TupleBudgets {
		tb := opt.TupleBudget{NTox: b[0], NVth: b[1]}
		id = tr.begin("opt.tuples", parent, req)
		t, err := ms2.OptimizeTuplesCtx(ctx, tb, units.GridSteps(0.20, 0.50, 0.05), units.GridSteps(10, 14, 1), budget)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		out := scenario.TupleOutcome{Budget: tb.String(), Feasible: t.Feasible}
		if t.Feasible {
			out.EnergyPJ = units.ToPJ(t.EnergyJ)
			out.VthSet = t.VthSet
			out.ToxSetA = t.ToxSet
		}
		res.Tuples = append(res.Tuples, out)
	}

	id = tr.begin("scenario.encode", parent, req)
	line, err := res.NDJSONLine()
	tr.end(id)
	return line, err
}

// traceGenProbe regenerates a set of traces — the workload parameters and
// length a simulation uses — without simulating them, so trace.gen shows
// the trace layer's share of sim.matrix.
func traceGenProbe(ctx context.Context, tr *tracer, req string, suites []trace.Params, n int) error {
	id := tr.begin("trace.gen", 0, req)
	defer tr.end(id)
	for _, p := range suites {
		g, err := trace.New(p)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if i%(1<<16) == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			g.Next()
		}
	}
	return nil
}

// suitesOf is the trace parameter set a scenario workload name selects.
func suitesOf(workload string, seed int64) []trace.Params {
	var out []trace.Params
	for _, p := range trace.Suites(seed) {
		if workload == "average" || p.Name == workload {
			out = append(out, p)
		}
	}
	return out
}
