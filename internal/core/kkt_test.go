package core

import (
	"math"
	"testing"

	"edgealloc/internal/model"
)

// This file holds the tests' reference for the single program: each slot's
// KKT certificate. It checks a committed decision and its recorded
// multipliers instead of solving P2 a second way, and it shares neither the
// alm.Groups row kernels nor the Newton solver with the path it checks: the
// rows are the instance's dense row sums, written out here, and the
// gradient is p2Objective's on the dense layout, which TestP2ObjectiveGradient
// pins to finite differences.

// kktResidual is how far one slot's (x, [θ | ν]) is from P2's KKT system:
//
//   - Primal: the largest demand shortfall (λ_j − Σ_i x_ij)⁺/(1+λ_j),
//     capacity excess (Σ_j x_ij − C_i)⁺/(1+C_i) and negative entry −x_ij;
//   - Dual: the largest negative multiplier (NaN counts as +Inf);
//   - Comp: the largest min(y, slack/(1+|b|)) over the demand and capacity
//     rows, a multiplier left on a row with slack;
//   - Stat: the largest |min(x_ij, r_ij)|/(1+|∇f_ij|) over the pairs, with
//     r_ij = ∇f_ij − θ_j + ν_i the reduced cost: a served pair must price
//     at zero and an unserved one at no less.
type kktResidual struct {
	Primal, Dual, Comp, Stat float64
}

// Max is the largest of the four.
func (r kktResidual) Max() float64 {
	return max(r.Primal, r.Dual, r.Comp, r.Stat)
}

// slotKKT measures slot t's committed decision x, departing from prev, and
// its recorded multipliers duals = [θ (J) | ν (I)].
func slotKKT(in *model.Instance, t int, prev model.Alloc, x, duals []float64, eps1, eps2 float64) kktResidual {
	nI, nJ := in.I, in.J
	grad := make([]float64, nI*nJ)
	newP2Objective(in, t, prev, eps1, eps2).Eval(x, grad)
	theta, nu := duals[:nJ], duals[nJ:]
	var r kktResidual
	for _, y := range duals {
		if math.IsNaN(y) {
			y = math.Inf(-1)
		}
		r.Dual = max(r.Dual, -y)
	}
	served := make([]float64, nJ)
	for i := 0; i < nI; i++ {
		load := 0.0
		for j := 0; j < nJ; j++ {
			v := x[i*nJ+j]
			served[j] += v
			load += v
			r.Primal = max(r.Primal, -v)
			g := grad[i*nJ+j]
			rc := g - theta[j] + nu[i]
			r.Stat = max(r.Stat, math.Abs(min(v, rc))/(1+math.Abs(g)))
		}
		scale := 1 + in.Capacity[i]
		slack := in.Capacity[i] - load
		r.Primal = max(r.Primal, -slack/scale)
		r.Comp = max(r.Comp, min(nu[i], slack/scale))
	}
	for j, s := range served {
		scale := 1 + in.Workload[j]
		slack := s - in.Workload[j]
		r.Primal = max(r.Primal, -slack/scale)
		r.Comp = max(r.Comp, min(theta[j], slack/scale))
	}
	return r
}

// runKKT measures every slot of a finished run: sched is its schedule and
// duals its dual record, one [θ | ν] row per slot. It returns the worst
// residual of each kind and the slot of the worst overall.
func runKKT(in *model.Instance, sched model.Schedule, duals [][]float64, eps1, eps2 float64) (worst kktResidual, at int) {
	prev := in.InitialAlloc()
	for t := range sched {
		r := slotKKT(in, t, prev, sched[t].X, duals[t], eps1, eps2)
		if r.Max() > worst.Max() {
			at = t
		}
		worst = kktResidual{
			Primal: max(worst.Primal, r.Primal), Dual: max(worst.Dual, r.Dual),
			Comp: max(worst.Comp, r.Comp), Stat: max(worst.Stat, r.Stat),
		}
		prev = sched[t]
	}
	return worst, at
}

// checkKKT fails t unless every slot of alg's finished run, whose schedule
// is sched, meets P2's KKT system to kktTol.
func checkKKT(t *testing.T, name string, alg *OnlineApprox, sched model.Schedule) kktResidual {
	t.Helper()
	worst, at := runKKT(alg.inst, sched, alg.Duals(), alg.opts.Epsilon1, alg.opts.Epsilon2)
	if !(worst.Max() <= kktTol) {
		t.Errorf("%s: KKT residual %+v (worst at slot %d) above %g", name, worst, at, kktTol)
	}
	return worst
}

// kktTol is the KKT residual every single-program run checked here must
// meet. Measured worst: 8.3e-14 over FuzzOnlineStep's seeds, 9.2e-15 on
// TestStructuredMatchesDenseRows' Rome window and 2.8e-13 on a 60-user,
// 20-slot Rome day under the tests' tight solver options, 3.2e-12 on that
// day under the defaults; the last Newton-KKT step of a converged solve
// lands on the active set's KKT point to round-off. 60 s of fuzzing
// FuzzOnlineStep (181k inputs) found nothing above it; a wrong row kernel
// or multiplier misses it by orders of magnitude.
const kktTol = 1e-10
