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
	prob := &alm.Problem{Obj: obj, N: in.I * in.J, Groups: denseP2Groups(in)}
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
	prob := &alm.Problem{Obj: obj, N: in.I * in.J, Groups: denseP2Groups(in)}
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

// denseP2Groups is P2's rows over the dense I×J grid: demand for every
// user, then capacity for every cloud — the single program's rows
// (singleState.buildRows) with every user active and every pair kept.
func denseP2Groups(in *model.Instance) *alm.Groups {
	g := &alm.Groups{I: in.I, J: in.J, RowPtr: make([]int, in.I+1), Cols: make([]int, 0, in.I*in.J)}
	for i := 0; i < in.I; i++ {
		for j := 0; j < in.J; j++ {
			g.Cols = append(g.Cols, j)
		}
		g.RowPtr[i+1] = len(g.Cols)
	}
	for j, l := range in.Workload {
		g.Rows = append(g.Rows, alm.GroupRow{Kind: alm.GroupUserSum, Index: j, RHS: l})
	}
	for i, c := range in.Capacity {
		g.Rows = append(g.Rows, alm.GroupRow{Kind: alm.GroupCloudSumNeg, Index: i, RHS: -c})
	}
	return g
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
