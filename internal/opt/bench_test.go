package opt

import (
	"fmt"
	"testing"

	"repro/internal/charlib"
	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/mem"
)

// benchSink keeps benchmarked results live.
var benchSink TwoLevelResult

// benchSystem is a two-level system on the fitted-model fixtures, searched
// over the paper's fine knob grid (the grid scenario points use).
func benchSystem(b *testing.B) (*TwoLevel, *Fronts, float64) {
	b.Helper()
	l1m, l2m, _ := testModels(b)
	g := charlib.OptimizationGrid()
	ops := PairsFromGrid(g.Vths, g.ToxAs)
	tl := &TwoLevel{L1: l1m, L2: l2m, M1: 0.05, M2: 0.3, Mem: mem.DefaultDDR()}
	a1 := components.Uniform(DefaultOP())
	fast := tl.AMAT(a1, components.Uniform(device.OP(0.20, 10)))
	slow := tl.AMAT(a1, components.Uniform(device.OP(0.50, 14)))
	return tl, NewFronts(l2m, ops), (fast + slow) / 2
}

// BenchmarkBuildFronts is the cold build: every front of one cache over
// the fine knob grid — the per-design cost a memoized design pays once.
func BenchmarkBuildFronts(b *testing.B) {
	_, f, _ := benchSystem(b)
	ev, ops := f.ev, f.ops
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewFronts(ev, ops)
		for p := range f.parts {
			f.parts[p]()
		}
		f.periph()
		f.stairs()
	}
}

// BenchmarkOptimizeL2 is the warm per-point query: one AMAT budget
// answered from prebuilt L2 fronts, per scheme.
func BenchmarkOptimizeL2(b *testing.B) {
	tl, f, budget := benchSystem(b)
	tl.L2Fronts = f
	a1 := components.Uniform(DefaultOP())
	for _, s := range []Scheme{SchemeI, SchemeII, SchemeIII} {
		b.Run(fmt.Sprintf("s%d", int(s)), func(b *testing.B) {
			ctx := b.Context()
			if r, _ := tl.OptimizeL2Ctx(ctx, s, a1, f.ops, budget); !r.Feasible {
				b.Fatalf("%v infeasible at the mid budget", s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, _ = tl.OptimizeL2Ctx(ctx, s, a1, f.ops, budget)
			}
		})
	}
}
