package opt

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/sweep"
)

// Fronts is the budget-independent half of the single-cache optimization
// for one (evaluator, knob grid): the per-component Pareto fronts, the
// periphery-group front and the uniform-assignment staircase. Only the
// delay budget varies between queries, so Fronts is built once and every
// budget is a lookup. Each piece is built on first use, so a Scheme II
// caller never evaluates the other fronts. Fronts is safe for concurrent
// use; treat the evaluator and the knob grid as read-only.
type Fronts struct {
	ev  ComponentEvaluator
	ops []device.OperatingPoint
	// parts are the per-component fronts (Scheme I); the cell array's is
	// also Scheme II's cell front.
	parts [components.PartCount]func() []ParetoPoint
	// periph is the front of the three periphery components sharing one
	// pair (Scheme II).
	periph func() []ParetoPoint
	stairs func() staircase // Scheme III
}

// NewFronts returns the fronts of ev over the candidate operating points.
// It evaluates nothing; each front is built when a query first needs it.
func NewFronts(ev ComponentEvaluator, ops []device.OperatingPoint) *Fronts {
	f := &Fronts{
		ev:     ev,
		ops:    ops,
		periph: groupFront(ev, ops, components.PartDecoder, components.PartAddrDrivers, components.PartDataDrivers),
		stairs: sync.OnceValue(func() staircase { return uniformStaircase(ev, ops) }),
	}
	for p := range f.parts {
		f.parts[p] = groupFront(ev, ops, components.PartID(p))
	}
	return f
}

// groupFront builds, on first call, the Pareto front of a component group
// sharing one pair: delays and leakages summed in group order.
func groupFront(ev ComponentEvaluator, ops []device.OperatingPoint, group ...components.PartID) func() []ParetoPoint {
	return sync.OnceValue(func() []ParetoPoint {
		pts := make([]ParetoPoint, len(ops))
		for i, op := range ops {
			var d, l float64
			for _, p := range group {
				d += ev.PartDelayS(p, op)
				l += ev.PartLeakageW(p, op)
			}
			pts[i] = ParetoPoint{DelayS: d, LeakageW: l, OP: op}
		}
		return ParetoFront(pts)
	})
}

// frontsOver returns f when it was built over this very knob-grid slice,
// and fresh fronts of ev over ops otherwise.
func frontsOver(f *Fronts, ev ComponentEvaluator, ops []device.OperatingPoint) *Fronts {
	if f != nil && len(f.ops) == len(ops) && (len(ops) == 0 || &f.ops[0] == &ops[0]) {
		return f
	}
	return NewFronts(ev, ops)
}

// DelayRange returns the minimum and maximum access times over uniform
// assignments — the span of delay budgets worth sweeping.
func (f *Fronts) DelayRange() (lo, hi float64) {
	s := f.stairs()
	return s.lo, s.hi
}

// Optimize answers one delay budget with the scheme's optimizer. The
// context is checked on entry and, for Scheme I, between DP layers; on
// cancellation it returns ctx's error and an infeasible result.
func (f *Fronts) Optimize(ctx context.Context, s Scheme, delayBudget float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return infeasible(s), err
	}
	switch s {
	case SchemeI:
		return f.schemeI(ctx, delayBudget, 0)
	case SchemeII:
		return f.schemeII(delayBudget), nil
	default:
		return schemeIII(f.stairs(), len(f.ops), delayBudget), nil
	}
}

// Frontier answers each budget and returns one result per budget — the
// leakage-vs-delay trade-off curve of the scheme. Budgets are independent,
// so each runs on its own worker; results come back in budget order.
func (f *Fronts) Frontier(ctx context.Context, s Scheme, budgets []float64) ([]Result, error) {
	return sweep.MapCtx(ctx, len(budgets), 0, func(ctx context.Context, i int) (Result, error) {
		return f.Optimize(ctx, s, budgets[i])
	})
}

// staircase is Scheme III's answer table. Scheme III picks, among the
// uniform assignments that meet the budget, the earliest candidate (in
// knob-grid order) with strictly least leakage. The feasible set of a
// budget is a prefix of the candidates sorted by delay, so the answer is
// that prefix's minimum under the lexicographic (leakage, input index)
// order. steps keeps each candidate at which the prefix minimum changes,
// in delay order; a budget's answer is the last step within it
// (BestUnderBudget).
type staircase struct {
	steps  []ParetoPoint
	lo, hi float64 // DelayRange
}

func uniformStaircase(ev Evaluator, ops []device.OperatingPoint) staircase {
	type cand struct {
		ParetoPoint
		i int
	}
	s := staircase{lo: math.Inf(1), hi: math.Inf(-1)}
	cands := make([]cand, 0, len(ops))
	for i, op := range ops {
		a := components.Uniform(op)
		d := ev.AccessTimeS(a)
		s.lo, s.hi = math.Min(s.lo, d), math.Max(s.hi, d)
		// No budget admits a NaN delay, and the strict "less leaky than
		// the best so far, starting from +Inf" rule never picks a +Inf
		// or NaN leakage.
		if math.IsNaN(d) {
			continue
		}
		if l := ev.LeakageW(a); l < math.Inf(1) {
			cands = append(cands, cand{ParetoPoint{DelayS: d, LeakageW: l, OP: op}, i})
		}
	}
	slices.SortStableFunc(cands, func(a, b cand) int { return cmp.Compare(a.DelayS, b.DelayS) })
	var best cand
	for k, c := range cands {
		if k == 0 || c.LeakageW < best.LeakageW || (c.LeakageW == best.LeakageW && c.i < best.i) {
			best = c
			s.steps = append(s.steps, c.ParetoPoint)
		}
	}
	return s
}
