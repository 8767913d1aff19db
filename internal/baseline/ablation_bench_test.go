package baseline

// Ablation benchmarks for the baseline machinery: the smoothing
// continuation schedule of the offline program (accuracy vs effort) and
// the specialized transportation solver against the general first-order
// path on the same atomistic slot.

import (
	"testing"

	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/solver/alm"
	"edgealloc/internal/solver/fista"
	"edgealloc/internal/solver/smooth"
)

func benchInstance(b *testing.B) *model.Instance {
	b.Helper()
	in, _, err := scenario.Rome(scenario.Config{Users: 12, Horizon: 8, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkOfflineMuSchedule compares continuation schedules: each run
// reports the achieved true-P0 objective so accuracy loss is visible next
// to the time saved.
func BenchmarkOfflineMuSchedule(b *testing.B) {
	in := benchInstance(b)
	for _, tc := range []struct {
		name string
		mus  []float64
	}{
		{"one-stage", []float64{2e-3}},
		{"two-stage", []float64{0.05, 2e-3}},
		{"three-stage", smooth.Schedule(0.25, 1e-3, 0.1)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				off := &Offline{MuSchedule: tc.mus, Solver: alm.Options{
					MaxOuter: 25, InnerIters: 800, FeasTol: 1e-6,
					DualTol: 1e-3, ObjTol: 1e-7, Penalty: 4,
				}}
				s, err := off.Solve(in)
				if err != nil {
					b.Fatal(err)
				}
				bd, err := in.Evaluate(s)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(in.Total(bd), "true-objective")
			}
		})
	}
}

// BenchmarkAtomisticTransportVsALM pits the exact transportation solver
// against the generic smoothed first-order path on one stat-opt slot —
// the justification for building the specialized solver at all.
func BenchmarkAtomisticTransportVsALM(b *testing.B) {
	in := benchInstance(b)
	at := &Atomistic{Kind: StatOpt}
	b.Run("transport", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := solveSlotTransport(in, at.slotCost(in, 0)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("alm", func(b *testing.B) {
		coef := in.StaticCoeff(0)
		obj := fista.Func(func(x, grad []float64) float64 {
			f := 0.0
			for k, v := range x {
				f += coef[k] * v
				if grad != nil {
					grad[k] = coef[k]
				}
			}
			return f
		})
		g := slotGroups(in, 1)
		for n := 0; n < b.N; n++ {
			_, err := alm.Solve(&alm.Problem{Obj: obj, N: in.I * in.J, Groups: g}, alm.Options{MaxOuter: 60, InnerIters: 600, FeasTol: 1e-6, Penalty: 2})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGreedySlot measures one production greedy decision.
func BenchmarkGreedySlot(b *testing.B) {
	in := benchInstance(b)
	single := *in
	single.T = 1
	single.OpPrice = in.OpPrice[:1]
	single.Attach = in.Attach[:1]
	single.AccessDelay = in.AccessDelay[:1]
	g := &Greedy{}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := g.Solve(&single); err != nil {
			b.Fatal(err)
		}
	}
}
