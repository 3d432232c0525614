package opt

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/charlib"
	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/units"
)

// refSchemeIII is the per-call Scheme III scan that Fronts replaced, kept
// as the reference: walk the grid in order and keep the first strictly
// less leaky uniform assignment within budget.
func refSchemeIII(ev Evaluator, ops []device.OperatingPoint, delayBudget float64) Result {
	best := infeasible(SchemeIII)
	for _, op := range ops {
		a := components.Uniform(op)
		best.Evaluated++
		if d := ev.AccessTimeS(a); d <= delayBudget {
			if l := ev.LeakageW(a); l < best.LeakageW {
				best.Assignment = a
				best.LeakageW = l
				best.DelayS = d
				best.Feasible = true
			}
		}
	}
	return best
}

// refSchemeII is the per-call Scheme II search that Fronts replaced, kept
// as the reference: rebuild the cell and periphery-group fronts, then
// combine them.
func refSchemeII(ev ComponentEvaluator, ops []device.OperatingPoint, delayBudget float64) Result {
	cellPts := make([]ParetoPoint, len(ops))
	periphPts := make([]ParetoPoint, len(ops))
	for i, op := range ops {
		cellPts[i] = ParetoPoint{
			DelayS:   ev.PartDelayS(components.PartCellArray, op),
			LeakageW: ev.PartLeakageW(components.PartCellArray, op),
			OP:       op,
		}
		var d, l float64
		for _, p := range []components.PartID{components.PartDecoder, components.PartAddrDrivers, components.PartDataDrivers} {
			d += ev.PartDelayS(p, op)
			l += ev.PartLeakageW(p, op)
		}
		periphPts[i] = ParetoPoint{DelayS: d, LeakageW: l, OP: op}
	}
	cellFront, periphFront := ParetoFront(cellPts), ParetoFront(periphPts)

	best := infeasible(SchemeII)
	best.Evaluated = len(ops) * 2
	for _, cell := range cellFront {
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

// tieEvaluator scores every (component, operating point) from a small
// integer table, so delays and leakages tie exactly across points and
// components — including equal leakage at different delays, which is
// where Scheme III's input-order tie-break matters.
type tieEvaluator struct {
	idx        map[device.OperatingPoint]int
	delay, lkg [][components.PartCount]float64
}

func newTieEvaluator(seed int64, ops []device.OperatingPoint, extremes bool) *tieEvaluator {
	rng := rand.New(rand.NewSource(seed))
	e := &tieEvaluator{
		idx:   make(map[device.OperatingPoint]int, len(ops)),
		delay: make([][components.PartCount]float64, len(ops)),
		lkg:   make([][components.PartCount]float64, len(ops)),
	}
	for i, op := range ops {
		e.idx[op] = i
		for p := range e.delay[i] {
			e.delay[i][p] = float64(rng.Intn(4) + 1)
			e.lkg[i][p] = float64(rng.Intn(3) + 1)
			if extremes && rng.Intn(8) == 0 {
				e.lkg[i][p] = []float64{1e16, math.Inf(1)}[rng.Intn(2)]
			}
		}
	}
	return e
}

func (e *tieEvaluator) PartDelayS(p components.PartID, op device.OperatingPoint) float64 {
	return e.delay[e.idx[op]][p]
}

func (e *tieEvaluator) PartLeakageW(p components.PartID, op device.OperatingPoint) float64 {
	return e.lkg[e.idx[op]][p]
}

func (e *tieEvaluator) AccessTimeS(a components.Assignment) float64 {
	var sum float64
	for p, op := range a {
		sum += e.PartDelayS(components.PartID(p), op)
	}
	return sum
}

func (e *tieEvaluator) LeakageW(a components.Assignment) float64 {
	var sum float64
	for p, op := range a {
		sum += e.PartLeakageW(components.PartID(p), op)
	}
	return sum
}

// boundaryBudgets lists every delay on the fronts Schemes II and III query
// (and, with sums, every cell + periphery combination, Scheme II's
// breakpoints), one ulp either side of each, plus zero, a negative budget,
// +Inf and NaN.
func boundaryBudgets(f *Fronts, sums bool) []float64 {
	delays := []float64{}
	for _, pt := range f.parts[components.PartCellArray]() {
		delays = append(delays, pt.DelayS)
	}
	for _, pt := range f.periph() {
		delays = append(delays, pt.DelayS)
	}
	for _, pt := range f.stairs().steps {
		delays = append(delays, pt.DelayS)
	}
	if sums {
		for _, c := range f.parts[components.PartCellArray]() {
			for _, pt := range f.periph() {
				delays = append(delays, c.DelayS+pt.DelayS)
			}
		}
	}
	budgets := []float64{0, -1e-12, math.Inf(1), math.NaN()}
	for _, d := range delays {
		budgets = append(budgets, math.Nextafter(d, math.Inf(-1)), d, math.Nextafter(d, math.Inf(1)))
	}
	return budgets
}

// checkFrontsMatchReference compares Fronts' Scheme II and III answers
// with the reference scans, field for field, at every boundary budget.
func checkFrontsMatchReference(t *testing.T, ev ComponentEvaluator, ops []device.OperatingPoint, sums bool) {
	t.Helper()
	f := NewFronts(ev, ops)
	for _, b := range boundaryBudgets(f, sums) {
		for _, c := range []struct {
			s    Scheme
			want Result
		}{
			{SchemeII, refSchemeII(ev, ops, b)},
			{SchemeIII, refSchemeIII(ev, ops, b)},
		} {
			got, err := f.Optimize(t.Context(), c.s, b)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("%v at budget %v:\n got  %+v\n want %+v", c.s, b, got, c.want)
			}
		}
	}
}

func TestFrontsMatchReferenceOnFittedModel(t *testing.T) {
	l1m, l2m, _ := testModels(t)
	g := charlib.OptimizationGrid()
	ops := PairsFromGrid(g.Vths, g.ToxAs)
	for _, m := range []ComponentEvaluator{l1m, l2m} {
		checkFrontsMatchReference(t, m, ops, false)
	}
}

func TestFrontsMatchReferenceWithExactTies(t *testing.T) {
	ops := PairsFromGrid(units.GridSteps(0.20, 0.50, 0.05), units.GridSteps(10, 14, 1))
	for seed := int64(1); seed <= 40; seed++ {
		checkFrontsMatchReference(t, newTieEvaluator(seed, ops, seed%2 == 0), ops, true)
	}
}

// TestStaircasePrefersEarlierInputOnLeakageTie pins the tie-break a plain
// Pareto front would lose: a slower candidate with the same leakage as a
// faster one still wins once both fit, when it comes first in the grid.
func TestStaircasePrefersEarlierInputOnLeakageTie(t *testing.T) {
	ops := []device.OperatingPoint{device.OP(0.3, 12), device.OP(0.2, 10)}
	ev := &tieEvaluator{
		idx:   map[device.OperatingPoint]int{ops[0]: 0, ops[1]: 1},
		delay: [][components.PartCount]float64{{2, 0, 0, 0}, {1, 0, 0, 0}},
		lkg:   [][components.PartCount]float64{{3, 0, 0, 0}, {3, 0, 0, 0}},
	}
	f := NewFronts(ev, ops)
	for _, c := range []struct {
		budget float64
		want   device.OperatingPoint
	}{{1, ops[1]}, {2, ops[0]}, {math.Inf(1), ops[0]}} {
		r, err := f.Optimize(t.Context(), SchemeIII, c.budget)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Feasible || r.Assignment != components.Uniform(c.want) {
			t.Errorf("budget %v: got %+v, want uniform %v", c.budget, r, c.want)
		}
		if want := refSchemeIII(ev, ops, c.budget); r != want {
			t.Errorf("budget %v: got %+v, reference %+v", c.budget, r, want)
		}
	}
}

// TestFrontsDelayRange pins DelayRange to the min/max scan of uniform
// access times it replaced (FeasibleDelayRange).
func TestFrontsDelayRange(t *testing.T) {
	l1m, _, _ := testModels(t)
	ops := midOps()
	wlo, whi := math.Inf(1), math.Inf(-1)
	for _, op := range ops {
		d := l1m.AccessTimeS(components.Uniform(op))
		wlo, whi = math.Min(wlo, d), math.Max(whi, d)
	}
	if lo, hi := NewFronts(l1m, ops).DelayRange(); lo != wlo || hi != whi {
		t.Errorf("DelayRange = [%v, %v], want [%v, %v]", lo, hi, wlo, whi)
	}
}

func TestFrontsCancelled(t *testing.T) {
	l1m, _, _ := testModels(t)
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	f := NewFronts(l1m, coarseOps())
	for _, s := range []Scheme{SchemeI, SchemeII, SchemeIII} {
		r, err := f.Optimize(ctx, s, math.Inf(1))
		if !errors.Is(err, context.Canceled) || r.Feasible {
			t.Errorf("%v: cancelled query returned %+v, %v", s, r, err)
		}
	}
}

// TestFrontsConcurrentFirstUse queries fresh Fronts from several workers
// at once, so the lazy builds race their first use; every answer must
// equal the one from fronts queried sequentially.
func TestFrontsConcurrentFirstUse(t *testing.T) {
	l1m, _, _ := testModels(t)
	ops := midOps()
	seq := NewFronts(l1m, ops)
	lo, hi := seq.DelayRange()
	budgets := units.Linspace(lo, hi, 16)
	for _, s := range []Scheme{SchemeI, SchemeII, SchemeIII} {
		got, err := NewFronts(l1m, ops).Frontier(t.Context(), s, budgets)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range budgets {
			if want, _ := seq.Optimize(t.Context(), s, b); got[i] != want {
				t.Errorf("%v budget %d: concurrent %+v, sequential %+v", s, i, got[i], want)
			}
		}
	}
}

// countingEvaluator counts part-delay evaluations, the unit of front-build
// work.
type countingEvaluator struct {
	CacheEvaluator
	n atomic.Int64
}

func (c *countingEvaluator) PartDelayS(p components.PartID, op device.OperatingPoint) float64 {
	c.n.Add(1)
	return c.CacheEvaluator.PartDelayS(p, op)
}

// TestTwoLevelReusesPrebuiltFronts checks that OptimizeL2 queries the
// prebuilt L2 fronts when called with the grid they cover — no further
// evaluation, whatever the budget — and builds fresh fronts for any other
// grid.
func TestTwoLevelReusesPrebuiltFronts(t *testing.T) {
	tl, ops := frontierSystem(t)
	ce := &countingEvaluator{CacheEvaluator: tl.L2}
	tl.L2 = ce
	tl.L2Fronts = NewFronts(ce, ops)
	a1 := components.Uniform(DefaultOP())
	lo, hi := tl.AMAT(a1, components.Uniform(device.OP(0.2, 10))), tl.AMAT(a1, components.Uniform(device.OP(0.5, 14)))

	want, _ := tl.OptimizeL2Ctx(t.Context(), SchemeII, a1, ops, (lo+hi)/2)
	built := ce.n.Load()
	if built == 0 {
		t.Fatal("first query built nothing")
	}
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		tl.OptimizeL2Ctx(t.Context(), SchemeII, a1, ops, lo+frac*(hi-lo))
	}
	if n := ce.n.Load(); n != built {
		t.Errorf("queries over the prebuilt grid evaluated %d more part delays", n-built)
	}

	copied := append([]device.OperatingPoint(nil), ops...)
	if got, _ := tl.OptimizeL2Ctx(t.Context(), SchemeII, a1, copied, (lo+hi)/2); got != want {
		t.Errorf("fresh fronts over an equal grid: got %+v, want %+v", got, want)
	}
	if ce.n.Load() == built {
		t.Error("a different grid slice reused the prebuilt fronts")
	}
}
