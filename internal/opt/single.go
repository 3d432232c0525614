package opt

import (
	"context"
	"math"

	"repro/internal/components"
	"repro/internal/device"
)

func partID(i int) components.PartID { return components.PartID(i) }

// OptimizeSchemeIIICtx finds the least-leaky uniform assignment meeting
// the delay budget — the earliest candidate with strictly least leakage
// among those within budget — by building the grid's staircase and
// looking the budget up (see Fronts). On cancellation it returns ctx's
// error and an infeasible result.
func OptimizeSchemeIIICtx(ctx context.Context, ev Evaluator, ops []device.OperatingPoint, delayBudget float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return infeasible(SchemeIII), err
	}
	return schemeIII(uniformStaircase(ev, ops), len(ops), delayBudget), nil
}

// schemeIII answers a budget from the staircase of an n-candidate grid.
func schemeIII(s staircase, n int, delayBudget float64) Result {
	r := infeasible(SchemeIII)
	r.Evaluated = n
	if p, ok := BestUnderBudget(s.steps, delayBudget); ok {
		r.Assignment = components.Uniform(p.OP)
		r.LeakageW = p.LeakageW
		r.DelayS = p.DelayS
		r.Feasible = true
	}
	return r
}

// OptimizeSchemeIICtx finds the least-leaky (cell pair, periphery pair)
// assignment meeting the delay budget, building only the two fronts
// Scheme II needs.
func OptimizeSchemeIICtx(ctx context.Context, ev ComponentEvaluator, ops []device.OperatingPoint, delayBudget float64) (Result, error) {
	return NewFronts(ev, ops).Optimize(ctx, SchemeII, delayBudget)
}

// schemeII combines the cell front with the periphery-group front. The two
// groups decompose additively, so for each cell point the best periphery
// point is the last one within the remaining budget: O(|cell front| *
// log |periph front|) per budget. The first strict improvement wins ties.
func (f *Fronts) schemeII(delayBudget float64) Result {
	periphFront := f.periph()
	best := infeasible(SchemeII)
	best.Evaluated = len(f.ops) * 2
	for _, cell := range f.parts[components.PartCellArray]() {
		rem := delayBudget - cell.DelayS
		if rem < 0 {
			continue
		}
		peri, ok := BestUnderBudget(periphFront, rem)
		if !ok {
			continue
		}
		if total := cell.LeakageW + peri.LeakageW; total < best.LeakageW {
			best.Assignment = components.Split(cell.OP, peri.OP)
			best.LeakageW = total
			best.DelayS = cell.DelayS + peri.DelayS
			best.Feasible = true
		}
	}
	return best
}

// SchemeIBins is the default delay quantization for the Scheme I dynamic
// program. Finer bins tighten the (conservative) quantization error.
const SchemeIBins = 4000

// OptimizeSchemeICtx finds independent per-component pairs minimizing total
// leakage under the delay budget with a DP of the given bin count (see
// Fronts.schemeI).
func OptimizeSchemeICtx(ctx context.Context, ev ComponentEvaluator, ops []device.OperatingPoint, delayBudget float64, bins int) (Result, error) {
	if err := ctx.Err(); err != nil {
		return infeasible(SchemeI), err
	}
	return NewFronts(ev, ops).schemeI(ctx, delayBudget, bins)
}

// schemeI combines the per-component Pareto fronts with a
// multiple-choice-knapsack dynamic program over a quantized delay budget.
// Delays are rounded up to bin boundaries, so the returned assignment never
// violates the true budget (the DP may miss solutions within one bin width
// of the boundary). The context is checked between DP layers.
func (f *Fronts) schemeI(ctx context.Context, delayBudget float64, bins int) (Result, error) {
	if bins <= 0 {
		bins = SchemeIBins
	}
	ev := f.ev
	evaluated := int(components.PartCount) * len(f.ops)
	binW := delayBudget / float64(bins)
	if binW <= 0 {
		return infeasible(SchemeI), nil
	}

	const inf = math.MaxFloat64
	binCost := func(d float64) int { return int(math.Ceil(d/binW - 1e-12)) }

	// Forward DP: tables[k][b] is the minimum leakage of the first k
	// components with quantized delay <= b bins; tables[0] is all zeros.
	tables := make([][]float64, components.PartCount+1)
	tables[0] = make([]float64, bins+1)
	for k := 0; k < int(components.PartCount); k++ {
		if err := ctx.Err(); err != nil {
			return infeasible(SchemeI), err
		}
		cur := tables[k]
		nxt := make([]float64, bins+1)
		for i := range nxt {
			nxt[i] = inf
		}
		for _, pt := range f.parts[k]() {
			cost := binCost(pt.DelayS)
			if cost > bins {
				continue
			}
			for b := cost; b <= bins; b++ {
				if cur[b-cost] == inf {
					continue
				}
				if cand := cur[b-cost] + pt.LeakageW; cand < nxt[b] {
					nxt[b] = cand
				}
			}
		}
		tables[k+1] = nxt
	}

	final := tables[components.PartCount]
	bestBin, bestLeak := -1, inf
	for b := 0; b <= bins; b++ {
		if final[b] < bestLeak {
			bestLeak = final[b]
			bestBin = b
		}
	}
	if bestBin < 0 {
		r := infeasible(SchemeI)
		r.Evaluated = evaluated
		return r, nil
	}

	// Backtrack through the tables to recover the per-component choices.
	var asgn components.Assignment
	b := bestBin
	for k := int(components.PartCount) - 1; k >= 0; k-- {
		found := false
		for _, pt := range f.parts[k]() {
			cost := binCost(pt.DelayS)
			if cost > b || tables[k][b-cost] == inf {
				continue
			}
			if approxEq(tables[k][b-cost]+pt.LeakageW, tables[k+1][b]) {
				asgn[k] = pt.OP
				b -= cost
				found = true
				break
			}
		}
		if !found {
			r := infeasible(SchemeI)
			r.Evaluated = evaluated
			return r, nil
		}
	}

	var trueDelay float64
	for i := range asgn {
		trueDelay += ev.PartDelayS(partID(i), asgn[i])
	}
	return Result{
		Scheme:     SchemeI,
		Assignment: asgn,
		LeakageW:   ev.LeakageW(asgn),
		DelayS:     trueDelay,
		Feasible:   true,
		Evaluated:  evaluated,
	}, nil
}

func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// OptimizeCtx dispatches to the scheme-specific optimizer over fresh
// fronts of ev; callers optimizing one cache at many budgets build the
// Fronts once and query them instead.
func OptimizeCtx(ctx context.Context, s Scheme, ev ComponentEvaluator, ops []device.OperatingPoint, delayBudget float64) (Result, error) {
	return NewFronts(ev, ops).Optimize(ctx, s, delayBudget)
}
