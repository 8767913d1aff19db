package core

// Ablation benchmarks for the design choices called out in DESIGN.md:
// warm-starting the per-slot ALM from the previous slot's primal/dual
// pair, and the effect of the regularization strength ε on solve effort.

import (
	"testing"

	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/solver/alm"
)

func benchInstance(b *testing.B) *model.Instance {
	b.Helper()
	in, _, err := scenario.Rome(scenario.Config{Users: 20, Horizon: 6, Seed: 99})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkP2SlotWarmStart measures a mid-horizon slot solve with the
// previous slot's solution and duals as the starting point (the
// production path).
func BenchmarkP2SlotWarmStart(b *testing.B) {
	in := benchInstance(b)
	alg := NewOnlineApprox(in, Options{})
	if _, err := alg.Step(0); err != nil {
		b.Fatal(err)
	}
	prev := alg.prev.Clone()
	duals := append([]float64(nil), alg.duals[0]...)
	obj := newP2Objective(in, 1, prev, 1, 1)
	prob := &alm.Problem{
		Obj: obj, N: in.I * in.J,
		Cons: p2Constraints(in),
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		res, err := alm.Solve(prob, alm.Options{
			MaxOuter: 60, InnerIters: 900, FeasTol: 1e-7, Penalty: 2,
			WarmX: prev.X, WarmDuals: duals,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.InnerIters), "inner-iters")
	}
}

// BenchmarkP2SlotColdStart solves the same slot from scratch — the
// ablated variant the warm start is measured against.
func BenchmarkP2SlotColdStart(b *testing.B) {
	in := benchInstance(b)
	alg := NewOnlineApprox(in, Options{})
	if _, err := alg.Step(0); err != nil {
		b.Fatal(err)
	}
	prev := alg.prev.Clone()
	obj := newP2Objective(in, 1, prev, 1, 1)
	prob := &alm.Problem{
		Obj: obj, N: in.I * in.J,
		Cons: p2Constraints(in),
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		res, err := alm.Solve(prob, alm.Options{
			MaxOuter: 60, InnerIters: 900, FeasTol: 1e-7, Penalty: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.InnerIters), "inner-iters")
	}
}

// BenchmarkP2SlotEpsilon sweeps ε: smaller ε sharpens the entropy wall
// near zero and typically costs inner iterations.
func BenchmarkP2SlotEpsilon(b *testing.B) {
	in := benchInstance(b)
	for _, eps := range []float64{1e-2, 1, 1e2} {
		b.Run(formatEps(eps), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				alg := NewOnlineApprox(in, Options{Epsilon1: eps, Epsilon2: eps})
				if _, err := alg.Step(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func formatEps(eps float64) string {
	switch {
	case eps < 0.1:
		return "eps=0.01"
	case eps < 10:
		return "eps=1"
	default:
		return "eps=100"
	}
}
