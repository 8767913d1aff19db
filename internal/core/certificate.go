package core

import (
	"errors"
	"math"

	"edgealloc/internal/model"
)

// Certificate is a per-run lower bound on the offline optimum, built from
// the dual solution S_D of §IV. The dual program D of the relaxation P3
// has objective
//
//	D = Σ_t Σ_j λ_j θ_{j,t} + Σ_t Σ_i (Λ−C_i)⁺ ρ_{i,t},
//
// and any feasible dual point lower-bounds OPT(P1) by weak duality
// (Lemma 2 + the P3 relaxation), hence OPT(P0) ≥ D − σ (Lemma 1).
// Dividing the algorithm's achieved cost by the bound certifies its
// empirical competitive ratio without ever solving the offline problem.
//
// Rather than trusting the numerical multipliers of the per-slot solver —
// which stop at the solver's budget, and on the sharded path are ambiguous
// because the z-step's complement rows are linearly dependent with its
// capacity rows at demand-tight points — the certificate constructs duals
// directly from P2's stationarity at the realized solution:
//
//	g_{ij,t} = ā_{ij,t} + (ĉ_i/η_i)·ln((X_{i,t}+ε₁)/(X_{i,t-1}+ε₁))
//	                    + (b̂_i/τ_ij)·ln((x_{ij,t}+ε₂)/(x_{ij,t-1}+ε₂))
//	ν_{i,t} = (−min_j g_{ij,t})⁺,   θ_{j,t} = min_i (g_{ij,t} + ν_{i,t}),
//	ρ_{i,t} = 0,   D = Σ_t [Σ_j λ_j θ_{j,t} − Σ_i C_i ν_{i,t}].
//
// With the paper's α/β mappings the telescoped differences satisfy
// α_{t+1}−α_t + β_{t+1}−β_t = ā_{ij,t} − g_{ij,t} exactly. β is negative
// where a pair serves more than its user's demand (x_ij > λ_j, which P2
// does not forbid), violating (14d), so the point uses β̃ = max(β, 0) and,
// on the pairs where the clamp acts at t or t+1, g̃ = ā − Δα − Δβ̃ in place
// of g. Constraint (14a) then reduces to θ_{j,t} ≤ g_{ij,t} + ν_{i,t},
// which holds by construction: the point is dual-feasible up to float round-off
// regardless of how accurately P2 was solved. The ν_{i,t} are the duals
// of the explicit capacity rows Σ_j x_{ij,t} ≤ C_i: when a binding cloud
// makes min_j g_{ij,t} negative (stationarity pushes its reduced costs
// below zero), no θ ≥ 0 alone satisfies (14a), so ν lifts every row of
// that cloud into feasibility and D is charged the exact price C_i·ν_{i,t}.
// The resulting bound is sound for any Theorem-1-feasible x:
//
//	f(x) ≥ Σ g·x + const = Σ (g+ν)·x − Σ_i ν_i Σ_j x_{ij} + const
//	     ≥ Σ_j θ_j·λ_j − Σ_i ν_i C_i + const.
//
// When no capacity binds, ν = 0 and θ = min_i g ≥ 0 is the exact dual
// optimum of the slot (the clouds run at 80% utilization in the paper's
// setting, so the ν charge is usually zero or small).
type Certificate struct {
	// D is the dual objective: a certified lower bound on OPT(P1) in
	// weighted cost units, excluding the access-delay constant.
	D float64
	// SigmaWeighted is w_mg·σ = w_mg·Σ_i b_i^out·C_i, the Lemma-1 constant
	// separating P0 and P1 optima.
	SigmaWeighted float64
	// AccessConstant is Σ_t Σ_j w_sq·d(j, l_{j,t}), the decision-independent
	// part of the service-quality cost, which the dual programs omit
	// (Lemma 5 drops it explicitly). It is added back when bounding the
	// full objectives.
	AccessConstant float64
	// NuCharge is Σ_t Σ_i C_i·ν_{i,t} ≥ 0, the capacity-dual price already
	// deducted from D. D + NuCharge = Σ_t Σ_j λ_j θ_{j,t} is the
	// undeducted stationarity value — the quantity the paper's
	// primal-dual analysis (Lemmas 3–6) bounds the achieved cost against,
	// so Theorem-2 cross-checks must compare with D + NuCharge, not D:
	// the deduction is bound slack from capacity binding, not a claim the
	// algorithm's cost stays within r of.
	NuCharge float64
	// Feasibility reports the residual violation of the dual constraints
	// by the constructed point; by construction all entries are at float
	// round-off level.
	Feasibility Feasibility
}

// Feasibility is the worst violation of each dual-constraint family by
// the constructed S_D, in absolute weighted-cost units.
type Feasibility struct {
	// DualRow is constraint (14a), the column constraint of the x variables.
	DualRow float64
	// AlphaBound is (14b): α_{i,t} ≤ w_rc·c_i.
	AlphaBound float64
	// BetaBound is (14c): β_{i,j,t} ≤ w_mg·b_i.
	BetaBound float64
	// Negativity is (14d)/(14e): all of α, β, θ, ν, ρ ≥ 0 (β, θ and ν are
	// nonnegative by construction; α is measured).
	Negativity float64
}

// Max returns the largest violation across all families.
func (f Feasibility) Max() float64 {
	return math.Max(math.Max(f.DualRow, f.AlphaBound), math.Max(f.BetaBound, f.Negativity))
}

// ErrIncompleteRun reports a certificate request before the horizon was
// fully processed.
var ErrIncompleteRun = errors.New("core: certificate requires a completed run")

// LowerBoundP1 returns the certified lower bound on OPT(P1) including the
// decision-independent access-delay constant.
func (c *Certificate) LowerBoundP1() float64 { return c.D + c.AccessConstant }

// LowerBoundP0 returns the certified lower bound on OPT(P0):
// OPT(P0) ≥ OPT(P1) − σ ≥ D − σ (both sides including the access constant).
func (c *Certificate) LowerBoundP0() float64 {
	return c.D + c.AccessConstant - c.SigmaWeighted
}

// Certificate builds the dual certificate from a completed run.
//
// The β mapping uses (λ_j+ε₂) rather than the paper's printed (C_i+ε₂) in
// the numerator: the telescoped differences β_{t+1}−β_t — the only form
// entering constraint (14a) — are identical under both choices, while the
// bound β ≤ w_mg·b_i of (14c) only holds with λ_j (the paper's own Lemma-2
// derivation for (14c) silently uses the λ_j form; see DESIGN.md).
//
// The construction reads only the realized schedule, never the solver's
// multipliers, so it is indifferent to how each slot was solved: the
// candidate-set path (Options.Candidates > 0) produces the same certified
// bound as the dense path because its pricing loop makes the reduced
// optimum the full optimum — the pruned pairs sit at zero exactly as the
// dense solve leaves them, and the g_{ij,t} stationarity values the
// certificate derives from the schedule are unchanged. No lifting of the
// reduced duals is needed.
//
// Every term of slot t depends on x_t and x_{t−1} alone, so the
// construction is one walk of the decision log (walkLog) rather than the
// whole schedule.
//
// Cost model. A slot is two streaming passes over the I×J grid, cloud row
// by cloud row — g, ν and the running minima θ first, then the Lemma-2
// residuals, which need the finished θ — plus math.Log only where a pair
// moved (x_{ij,t}+ε₂ ≠ x_{ij,t−1}+ε₂) and three per cloud for the α terms.
// A moved pair pays g's migration log ln((x_t+ε₂)/(x_{t−1}+ε₂)) and β's
// ln((λ_j+ε₂)/(x_t+ε₂)), the latter only if x_t ≠ 0: at a zero entry it
// is ln((λ_j+ε₂)/ε₂), computed once per user. A pair that did not move
// multiplies its factor by a zero log, as entropyRowGrad does, so a
// non-finite factor still yields NaN. β's logs are carried across slots
// in one I×J grid, rewritten in place by the residual pass: it holds
// slot t−1's logs for x_{t−1} when slot t starts and slot t's for x_t when
// it ends. The static coefficients are wa_i + sq_ij as bindStatic forms
// them, sq recomputed only for users that re-attached, and the factors
// b̂_i/τ_j are the objective's mgFac, so a call allocates the same few
// grids whatever the horizon. Every value is the expression the direct
// construction evaluates on the same operands, so the certificate is
// identical to it bit for bit (TestStreamedCertificateMatchesBatch).
func (o *OnlineApprox) Certificate() (*Certificate, error) {
	in := o.inst
	if o.slot != in.T {
		return nil, ErrIncompleteRun
	}
	eps1, eps2 := o.opts.Epsilon1, o.opts.Epsilon2

	cert := &Certificate{SigmaWeighted: in.WMg * in.Sigma()}
	for t := 0; t < in.T; t++ {
		for j := 0; j < in.J; j++ {
			cert.AccessConstant += in.WSq * in.AccessDelay[t][j]
		}
	}
	if in.T == 0 { // no slot ran, so there is no objective to read mgFac from
		return cert, nil
	}

	rcFac := make([]float64, in.I)  // ĉ_i/η_i
	mgFacI := make([]float64, in.I) // b̂_i
	for i := 0; i < in.I; i++ {
		rcFac[i] = in.WRc * in.ReconfPrice[i] / math.Log1p(in.Capacity[i]/eps1)
		mgFacI[i] = in.WMg * (in.MigOutPrice[i] + in.MigInPrice[i])
	}
	mgFac := o.obj.mgFac // b̂_i/τ_j per pair, both logs' factor

	alpha := func(i int, tot []float64) float64 { // paper's α_{i,t} from X_{i,t−1}
		return rcFac[i] * math.Log((in.Capacity[i]+eps1)/(tot[i]+eps1))
	}
	// lnBeta is β_{i,j,t}'s log (λ_j-numerator form) at x_{ij,t−1} = x.
	lnBeta := func(j int, x float64) float64 {
		return math.Log((in.Workload[j] + eps2) / (x + eps2))
	}
	lnZero := make([]float64, in.J)
	for j := range lnZero {
		lnZero[j] = lnBeta(j, 0)
	}
	lnAt := func(j int, x float64) float64 {
		if x == 0 {
			return lnZero[j]
		}
		return lnBeta(j, x)
	}

	// prev is x_{t−1} and the walk yields x_t, with their cloud totals;
	// x_0 is the initial state. lnB holds β's logs at prev.
	prev := in.InitialAlloc()
	prevTot, curTot := prev.CloudTotals(), make([]float64, in.I)
	lnB := make([]float64, in.I*in.J)
	for k, x := range prev.X {
		lnB[k] = lnAt(k%in.J, x)
	}
	sq, attach := make([]float64, in.I*in.J), make([]int, in.J)
	for j := range attach {
		attach[j] = -1
	}
	theta, nu, gRow := make([]float64, in.J), make([]float64, in.I), make([]float64, in.J)
	walkLog(in, o.log, func(s int, cur model.Alloc) bool {
		t := s + 1
		cur.CloudTotalsInto(curTot)
		attachSQ(in, t-1, sq, attach)
		price := in.OpPrice[t-1]

		// g_{ij} row by row; θ_j takes the minimum over ascending i, so ties
		// resolve as a column-wise scan would.
		clear(nu)
		for j := range theta {
			theta[j] = math.Inf(1)
		}
		for i := 0; i < in.I; i++ {
			lo, hi := i*in.J, (i+1)*in.J
			cRow, pRow, sqRow, fRow, lnRow := cur.X[lo:hi], prev.X[lo:hi], sq[lo:hi], mgFac[lo:hi], lnB[lo:hi]
			wa := in.WOp * price[i]
			rcln := rcFac[i] * math.Log((curTot[i]+eps1)/(prevTot[i]+eps1))
			minRow := math.Inf(1)
			for j, c := range cRow {
				num, den := c+eps2, pRow[j]+eps2
				var lg float64
				if num != den {
					lg = math.Log(num / den)
				}
				mgln := fRow[j] * lg
				if wl := in.Workload[j] + eps2; num > wl || den > wl {
					// β̃ = max(β, 0) differs from β at x_{t−1} or x_t:
					// g̃ takes the clamped difference, −Δβ̃.
					lc := lnRow[j]
					if num != den {
						lc = lnAt(j, c)
					}
					mgln = max(fRow[j]*lnRow[j], 0) - max(fRow[j]*lc, 0)
				}
				gij := wa + sqRow[j] + rcln + mgln
				gRow[j] = gij
				if gij < minRow {
					minRow = gij
				}
			}
			if minRow < 0 { // capacity binds: lift cloud i's rows, pay C_i·ν_i
				nu[i] = -minRow
				cert.D -= in.Capacity[i] * nu[i]
				cert.NuCharge += in.Capacity[i] * nu[i]
			}
			for j, gij := range gRow {
				if v := gij + nu[i]; v < theta[j] {
					theta[j] = v
				}
			}
		}
		for j, th := range theta { // θ ≥ 0: every cloud's lifted row is nonnegative
			cert.D += in.Workload[j] * th
		}

		// Verify S_D feasibility (Lemma 2) — a pure identity check here,
		// but kept as a guard against regressions in the mappings — and
		// carry β's logs from x_{t−1} to x_t.
		f := &cert.Feasibility
		for i := 0; i < in.I; i++ {
			a := alpha(i, prevTot)
			if v := a - in.WRc*in.ReconfPrice[i]; v > f.AlphaBound {
				f.AlphaBound = v
			}
			if a < -f.Negativity {
				f.Negativity = -a
			}
			da := alpha(i, curTot) - a
			lo, hi := i*in.J, (i+1)*in.J
			cRow, pRow, sqRow, fRow, lnRow := cur.X[lo:hi], prev.X[lo:hi], sq[lo:hi], mgFac[lo:hi], lnB[lo:hi]
			wa, mg, n := in.WOp*price[i], mgFacI[i], nu[i]
			dualRow, betaBound := f.DualRow, f.BetaBound
			for j, c := range cRow {
				lp := lnRow[j]
				lc := lp
				if c+eps2 != pRow[j]+eps2 {
					lc = lnAt(j, c)
					lnRow[j] = lc
				}
				bt := max(fRow[j]*lp, 0)
				if v := bt - mg; v > betaBound {
					betaBound = v
				}
				db := max(fRow[j]*lc, 0) - bt
				lhs := -(wa + sqRow[j]) + da + db + theta[j] - n
				if lhs > dualRow {
					dualRow = lhs
				}
			}
			f.DualRow, f.BetaBound = dualRow, betaBound
		}
		prev = cur
		prevTot, curTot = curTot, prevTot
		return true
	})
	return cert, nil
}
