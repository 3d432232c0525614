package opt

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/device"
)

// ParetoPoint is one (delay, leakage) trade-off point with the operating
// point that achieves it.
type ParetoPoint struct {
	DelayS   float64
	LeakageW float64
	OP       device.OperatingPoint
}

// ParetoFront reduces candidate points to the non-dominated set, sorted by
// increasing delay (and therefore decreasing leakage). A point dominates
// another when it is no slower and leaks no more, and is strictly better in
// at least one dimension. The sort is stable, so among points with equal
// delay and leakage the earliest in input order represents them, and the
// fastest point is always kept.
func ParetoFront(points []ParetoPoint) []ParetoPoint {
	if len(points) == 0 {
		return nil
	}
	sorted := slices.Clone(points)
	slices.SortStableFunc(sorted, func(a, b ParetoPoint) int {
		if c := cmp.Compare(a.DelayS, b.DelayS); c != 0 {
			return c
		}
		return cmp.Compare(a.LeakageW, b.LeakageW)
	})
	out := sorted[:1]
	for _, p := range sorted[1:] {
		if p.LeakageW < out[len(out)-1].LeakageW {
			out = append(out, p)
		}
	}
	// Copy to detach from the candidate-sized backing array.
	return slices.Clone(out)
}

// BestUnderBudget returns the least-leaky point with delay <= budget, or
// false when none qualifies (a NaN budget admits nothing). Points must be
// sorted by increasing delay with non-increasing leakage, as a Pareto
// front is.
func BestUnderBudget(front []ParetoPoint, budget float64) (ParetoPoint, bool) {
	// The best feasible point is the last one within budget.
	idx := sort.Search(len(front), func(i int) bool { return !(front[i].DelayS <= budget) })
	if idx == 0 {
		return ParetoPoint{}, false
	}
	return front[idx-1], true
}
