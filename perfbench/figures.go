package main

import (
	"context"

	"repro/internal/cachecfg"
	"repro/internal/exp"
	"repro/internal/trace"
	"repro/internal/work"
)

// figuresPinned is the hex SHA-256 of the workers=1 output of the full
// registry at defaultSeed and the default 1M-access scale.
const figuresPinned = "be069d42fb4e7c85d01ec6cad6f147fcf567a70d1d4a6fc0f752b10a3be1bba3"

// figuresSetupReps is how many fresh processes time the set-up. Each is
// only a process start plus resolving the registry, so more are cheap.
const figuresSetupReps = 9

// newFigures resolves the whole experiment registry into a batch over a
// fresh production-scale environment. Every reproduction starts from an
// empty environment, so its lazy substrate builds (characterised caches,
// fitted models, the suite miss matrices) are part of each pass.
func newFigures(seed int64) (*exp.Batch, *exp.Env, error) {
	env := exp.NewEnv()
	env.Seed = seed
	var ids []string
	for _, e := range exp.Experiments() {
		ids = append(ids, e.ID)
	}
	b, err := exp.NewBatch(ids, env)
	return b, env, err
}

func figuresSetupOnly(ctx context.Context, o options) error {
	_, _, err := newFigures(o.seed)
	return err
}

func runFigures(ctx context.Context, r *runner) error {
	if r.tr == nil {
		setups, err := childSetups(ctx, r.opts, figuresSetupReps)
		if err != nil {
			return err
		}
		r.set("setup_s", median(setups))
	}
	first, _, err := newFigures(r.opts.seed)
	if err != nil {
		return err
	}
	ref, err := outputReference(ctx, r.opts.seed, figuresPinned, first)
	if err != nil {
		return err
	}
	ids := first.IDs()
	// A traced pass builds the suite miss matrices under their own span
	// before the experiments run, so sim.matrix is not hidden inside
	// whichever experiment happens to need the matrices first.
	prepare := func(ctx context.Context, tr *tracer, parent int) (work.Batch, error) {
		b, env, err := newFigures(r.opts.seed)
		if err != nil || tr == nil {
			return b, err
		}
		id := tr.begin("sim.matrix", parent, "suites")
		_, err = env.SuiteMatricesCtx(ctx)
		tr.end(id)
		return b, err
	}
	p, err := runPasses(ctx, r, prepare, func(i int) string { return "exp.item." + ids[i] }, ref)
	if err != nil {
		return err
	}
	p.report(r, len(ids))
	if r.tr == nil {
		return nil
	}
	env := exp.NewEnv()
	env.Seed = r.opts.seed
	if err := traceGenProbe(ctx, r.tr, "suites", trace.Suites(env.Seed), env.Accesses); err != nil {
		return err
	}
	var l1KB, l2KB []int
	for _, s := range cachecfg.L1Sizes() {
		l1KB = append(l1KB, s/cachecfg.KB)
	}
	for _, s := range cachecfg.L2Sizes() {
		l2KB = append(l2KB, s/cachecfg.KB)
	}
	// The registry characterises caches through its own environment, not
	// the shared designs, so those are built cold here, where they time
	// what core.SharedDesign costs per organisation.
	cfgs := orgs(l1KB, l2KB)
	if err := warmDesigns(ctx, r.tr, 0, cfgs); err != nil {
		return err
	}
	return designProbe(ctx, r, cfgs)
}
