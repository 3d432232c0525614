package opt

import (
	"testing"

	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/mem"
)

func jointSystem(t *testing.T) *TwoLevel {
	l1m, l2m, _ := testModels(t)
	return &TwoLevel{L1: l1m, L2: l2m, M1: 0.07, M2: 0.17, Mem: mem.DefaultDDR()}
}

func jointTarget(tl *TwoLevel, frac float64) float64 {
	fast := tl.AMAT(components.Uniform(device.OP(0.20, 10)), components.Uniform(device.OP(0.20, 10)))
	slow := tl.AMAT(components.Uniform(device.OP(0.50, 14)), components.Uniform(device.OP(0.50, 14)))
	return fast + frac*(slow-fast)
}

func TestJointRespectsAMAT(t *testing.T) {
	tl := jointSystem(t)
	ops := midOps()
	for _, frac := range []float64{0.3, 0.6, 0.9} {
		target := jointTarget(tl, frac)
		r, _ := OptimizeJointCtx(t.Context(), tl, SchemeII, ops, target, 0)
		if !r.Feasible {
			t.Fatalf("joint optimization infeasible at frac %v", frac)
		}
		if r.AMATS > target*(1+1e-9) {
			t.Errorf("frac %v: AMAT %v violates %v", frac, r.AMATS, target)
		}
	}
}

func TestJointBeatsSingleSidedOptimization(t *testing.T) {
	// Freeing both levels can only improve on pinning the L1 at the default
	// knobs and optimizing the L2 alone.
	tl := jointSystem(t)
	ops := midOps()
	target := jointTarget(tl, 0.6)
	joint, _ := OptimizeJointCtx(t.Context(), tl, SchemeII, ops, target, 0)
	l2only, _ := tl.OptimizeL2Ctx(t.Context(), SchemeII, components.Uniform(DefaultOP()), ops, target)
	if !joint.Feasible {
		t.Fatal("joint infeasible")
	}
	if l2only.Feasible && joint.LeakageW > l2only.LeakageW*(1+1e-9) {
		t.Errorf("joint (%v W) worse than L2-only (%v W)", joint.LeakageW, l2only.LeakageW)
	}
}

func TestJointMonotoneInBudget(t *testing.T) {
	tl := jointSystem(t)
	ops := midOps()
	prev := 1e99
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8} {
		r, _ := OptimizeJointCtx(t.Context(), tl, SchemeII, ops, jointTarget(tl, frac), 0)
		if !r.Feasible {
			continue
		}
		if r.LeakageW > prev*(1+1e-9) {
			t.Errorf("joint optimum rose with a looser budget at frac %v", frac)
		}
		prev = r.LeakageW
	}
}

func TestJointInfeasibleBudget(t *testing.T) {
	tl := jointSystem(t)
	ops := midOps()
	r, _ := OptimizeJointCtx(t.Context(), tl, SchemeII, ops, jointTarget(tl, 0)/2, 0)
	if r.Feasible {
		t.Error("impossible AMAT accepted")
	}
}

func TestJointConservativeAtLooseBudget(t *testing.T) {
	// With an unconstrained budget both levels should saturate their knobs.
	tl := jointSystem(t)
	ops := midOps()
	r, _ := OptimizeJointCtx(t.Context(), tl, SchemeII, ops, jointTarget(tl, 1.0)*2, 0)
	if !r.Feasible {
		t.Fatal("infeasible at loose budget")
	}
	cell := r.L2Assignment[components.PartCellArray]
	if cell.Vth < 0.49 || cell.ToxAngstrom() < 13.9 {
		t.Errorf("L2 cells should saturate at loose budgets, got %v", cell)
	}
}

func TestFastestOP(t *testing.T) {
	ops := []device.OperatingPoint{
		device.OP(0.3, 12), device.OP(0.2, 14), device.OP(0.2, 10), device.OP(0.5, 10),
	}
	got := fastestOP(ops)
	if got != device.OP(0.2, 10) {
		t.Errorf("fastestOP = %v", got)
	}
}
