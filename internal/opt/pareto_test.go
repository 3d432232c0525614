package opt

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

// randomPoints builds a reproducible random point cloud from a seed.
func randomPoints(seed int64, n int) []ParetoPoint {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]ParetoPoint, n)
	for i := range pts {
		pts[i] = ParetoPoint{
			DelayS:   rng.Float64(),
			LeakageW: rng.Float64(),
			OP:       device.OP(0.2+0.3*rng.Float64(), 10+4*rng.Float64()),
		}
	}
	return pts
}

func dominates(a, b ParetoPoint) bool {
	return a.DelayS <= b.DelayS && a.LeakageW <= b.LeakageW &&
		(a.DelayS < b.DelayS || a.LeakageW < b.LeakageW)
}

func TestParetoFrontNoDominatedPointsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		pts := randomPoints(seed, n)
		front := ParetoFront(pts)
		// No front point dominates another front point.
		for i := range front {
			for j := range front {
				if i != j && dominates(front[i], front[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParetoFrontCoversAllPointsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		pts := randomPoints(seed, n)
		front := ParetoFront(pts)
		// Every input point is dominated by (or equal to) some front point.
		for _, p := range pts {
			ok := false
			for _, fp := range front {
				if fp.DelayS <= p.DelayS && fp.LeakageW <= p.LeakageW {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParetoFrontSortedProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 2
		front := ParetoFront(randomPoints(seed, n))
		return sort.SliceIsSorted(front, func(i, j int) bool {
			return front[i].DelayS < front[j].DelayS
		})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParetoFrontIdempotent(t *testing.T) {
	pts := randomPoints(42, 200)
	once := ParetoFront(pts)
	twice := ParetoFront(once)
	if len(once) != len(twice) {
		t.Fatalf("front not idempotent: %d vs %d", len(once), len(twice))
	}
	for i := range once {
		if once[i] != twice[i] {
			t.Fatalf("front changed at %d", i)
		}
	}
}

func TestParetoFrontDoesNotMutateInput(t *testing.T) {
	pts := randomPoints(7, 50)
	copyPts := append([]ParetoPoint(nil), pts...)
	ParetoFront(pts)
	for i := range pts {
		if pts[i] != copyPts[i] {
			t.Fatal("input slice mutated")
		}
	}
}

func TestBestUnderBudgetMatchesLinearScanProperty(t *testing.T) {
	f := func(seed int64, budgetRaw uint8) bool {
		front := ParetoFront(randomPoints(seed, 30))
		budget := float64(budgetRaw) / 255
		got, ok := BestUnderBudget(front, budget)
		// Reference: linear scan.
		var want *ParetoPoint
		for i := range front {
			if front[i].DelayS <= budget {
				if want == nil || front[i].LeakageW < want.LeakageW {
					want = &front[i]
				}
			}
		}
		if want == nil {
			return !ok
		}
		return ok && got == *want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestParetoFrontKeepsFastestPointAtHugeLeakage is the regression test for
// a "best so far" seed of leakage+1, which equals the leakage once
// |leakage| >= 2^53 or it is +Inf, and so silently dropped the fastest
// point.
func TestParetoFrontKeepsFastestPointAtHugeLeakage(t *testing.T) {
	for _, l := range []float64{1e16, math.Inf(1)} {
		p := ParetoPoint{DelayS: 1, LeakageW: l, OP: device.OP(0.3, 12)}
		if got := ParetoFront([]ParetoPoint{p}); len(got) != 1 || got[0] != p {
			t.Errorf("leakage %v: front %+v, want [%+v]", l, got, p)
		}
		faster := ParetoPoint{DelayS: 0.5, LeakageW: l, OP: device.OP(0.2, 10)}
		if got := ParetoFront([]ParetoPoint{p, faster}); len(got) != 1 || got[0] != faster {
			t.Errorf("leakage %v: front %+v, want [%+v]", l, got, faster)
		}
	}
}

// TestParetoFrontTieKeepsEarliestInput pins the stable tie-break: of
// points with equal delay and leakage, the earliest in input order stays.
func TestParetoFrontTieKeepsEarliestInput(t *testing.T) {
	a := ParetoPoint{DelayS: 1, LeakageW: 2, OP: device.OP(0.3, 12)}
	b := ParetoPoint{DelayS: 1, LeakageW: 2, OP: device.OP(0.4, 13)}
	slow := ParetoPoint{DelayS: 3, LeakageW: 1, OP: device.OP(0.5, 14)}
	for _, c := range []struct {
		in   []ParetoPoint
		want ParetoPoint
	}{
		{[]ParetoPoint{a, slow, b}, a},
		{[]ParetoPoint{b, slow, a}, b},
		{[]ParetoPoint{slow, b, a}, b},
	} {
		got := ParetoFront(c.in)
		if len(got) != 2 || got[0] != c.want || got[1] != slow {
			t.Errorf("ParetoFront(%+v) = %+v, want [%+v %+v]", c.in, got, c.want, slow)
		}
	}
	// Enough ties that an unstable sort would reorder them.
	rng := rand.New(rand.NewSource(3))
	var many []ParetoPoint
	for i := 0; i < 200; i++ {
		p := ParetoPoint{DelayS: float64(rng.Intn(3)), LeakageW: float64(rng.Intn(3)), OP: device.OP(0.2+0.001*float64(i), 12)}
		many = append(many, p)
	}
	for _, f := range ParetoFront(many) {
		for _, p := range many {
			if p.DelayS == f.DelayS && p.LeakageW == f.LeakageW {
				if p != f {
					t.Errorf("front kept %+v, but %+v ties it earlier in the input", f, p)
				}
				break
			}
		}
	}
}
