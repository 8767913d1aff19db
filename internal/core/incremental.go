package core

import (
	"math"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
)

// This file implements event-driven incremental slot solving
// (Options.Incremental). Between consecutive slots typically only a
// fraction of users change attachment while prices drift smoothly, so
// the slot-t optimum differs from the carried decision x' only on the
// affected users' columns. The incremental tier makes the per-slot cost
// proportional to that churn instead of to J:
//
//  1. Delta detection. User j is active in slot t when its attachment
//     changed (l_{j,t} ≠ l_{j,t-1}) or there is no committed slot to
//     carry from (t = 0, or the first slot after construction). Everyone
//     else starts frozen at x_{·j} = x'_{·j}. Attachment is the only
//     per-user input of P2 that varies with t — the static coefficient
//     ā_{ij,t} = w_op·p_{i,t} + w_sq·d(l_{j,t},i)/λ_j moves per-cloud
//     with prices and per-user only through l_{j,t}, and workloads are
//     slot-independent — so global price drift is handled entirely by
//     the gate in step 3 rather than by the detector.
//
//  2. Reduced solve. The active users solve their ragged candidate
//     program (sparse.go) with the frozen flow folded into the
//     constants: each cloud's capacity RHS drops by the flow its frozen
//     users carry, and the reconfiguration regularizer sees
//     X_i = A_i + F_i through p2Objective.totOff, where A_i is
//     the active (variable) part and F_i the frozen offset. Frozen
//     demand rows are exactly satisfied by construction (x' is
//     post-repair), so they leave the program entirely and the dual
//     dimension shrinks to |active| + I.
//
//  3. Soundness gate. A frozen column is optimal for the full P2 iff it
//     satisfies KKT stationarity under the solved slot's multipliers.
//     At x_{·j} = x'_{·j} the migration gradient vanishes (the ratio is
//     exactly 1), so the reduced gradient of pair (i, j) is
//
//     g_ij = ā_{ij,t} + (ĉ_i/η_i)·ln((X_i+ε₁)/(X'_i+ε₁)) + ν'_i
//
//     (kktBase computes the per-cloud part, for the single program and
//     the sharded path alike), and the ≥-demand row admits a dual θ_j ≥ 0
//     with g_ij = θ_j on the support and g_ij ≥ θ_j off it exactly when
//     every support pair sits at the column minimum min_i g_ij and that
//     minimum is ≥ 0.
//     The gate tests both at IncrementalTol (relative per pair, like
//     the pricing pass): violators are re-admitted to the active set
//     with their carryover support seeded, the reduced program is
//     rebuilt, and the solve resumes warm until a round changes
//     nothing. Certified frozen users take θ_j = max(0, min_i g_ij).
//
// Active sets only grow within a slot, so the loop terminates — in the
// worst case (100% churn, or a gate round that thaws everyone) at the
// plain candidate path's program. The gate runs on the duals the
// bounded solve produced, converged or not, with the relative tolerance
// absorbing budget-level dual noise — the exact stance the pricing pass
// takes with CandidateTol. Feasibility is unconditional at any
// tolerance: frozen columns carry the previous feasible decision, the
// reduced program solves under the residual capacities, and the
// model-layer repair still runs on the assembled slot, so Theorem 1's
// chain is intact.
// Only optimality rests on the gate, degrading gracefully with
// IncrementalTol exactly as pricing does with CandidateTol.
//
// All of this is data for the one solve loop in sparse.go: the active
// mask, the frozen per-cloud flow, and the rows below.

// buildRows recomputes the active list, the frozen per-cloud flow (from
// the carried decision prev), and the program's structured rows from the
// current activity flags: demand Σ_i x_ij ≥ λ_j for every active user and
// capacity Σ_j x_ij ≤ C_i for every cloud (see p2Constraints, whose row
// order this mirrors: the program's dual layout is θ' then ν', with frozen
// demand rows deleted). Frozen flow moves to the right-hand sides; with
// everyone active they are p2Constraints' exactly.
//
// The paper's complement rows Σ_{k≠i} Σ_j x_kj ≥ (Λ − C_i)⁺ are not
// emitted: they are implied (DESIGN.md §3b finding 4). Summing the active
// demand rows and adding capacity row i gives Σ_{k≠i} A_k ≥ Λ_act − C_i +
// F_i, and frozen users carry at least their demand (prev is post-repair,
// so Σ_k F_k ≥ Λ − Λ_act), which makes that no smaller than what
// complement row i still asks of the active flow, Λ − C_i − Σ_{k≠i} F_k;
// where Λ ≤ C_i the row asks nothing x ≥ 0 does not give.
// TestComplementRowsImplied asserts it on every slot's emitted rows.
func (s *singleState) buildRows(in *model.Instance, prev []float64) {
	nI, nJ := in.I, in.J
	s.actList = s.actList[:0]
	for j, a := range s.active {
		if a {
			s.actList = append(s.actList, j)
		}
	}
	clear(s.frozenTot)
	if len(s.actList) < nJ {
		for i := 0; i < nI; i++ {
			base := i * nJ
			f := 0.0
			for j := 0; j < nJ; j++ {
				if !s.active[j] {
					f += prev[base+j]
				}
			}
			s.frozenTot[i] = f
		}
	}
	s.rows = s.rows[:0]
	for _, j := range s.actList {
		s.rows = append(s.rows, alm.GroupRow{Kind: alm.GroupUserSum, Index: j, RHS: in.Workload[j]})
	}
	for i := 0; i < nI; i++ {
		rhs := in.Capacity[i] - s.frozenTot[i]
		if rhs < 0 {
			// Carried round-off may graze C_i; never demand negative
			// active flow.
			rhs = 0
		}
		s.rows = append(s.rows, alm.GroupRow{Kind: alm.GroupCloudSumNeg, Index: i, RHS: -rhs})
	}
	s.groups.Rows = s.rows
}

// gateFrozen certifies every frozen column against the round's
// multipliers, recording the certified columns' demand duals. A violator
// joins the active set with its candidate pairs seeded (nearest clouds
// plus carryover support); its demand row re-enters warm at the θ already
// in the working duals — the committed value, or the gate's estimate from
// an earlier round. It returns the number of users re-admitted.
func (o *OnlineApprox) gateFrozen(t int) int {
	s := o.single
	readmitted := 0
	for j, act := range s.active {
		if act {
			continue
		}
		theta, viol := o.obj.gateColumn(j, s.base, o.opts.IncrementalTol)
		if viol {
			s.active[j] = true
			o.seedUser(t, j, o.prev.X)
			readmitted++
		} else {
			s.duals[j] = theta
		}
	}
	return readmitted
}

// gateColumn is the freeze gate's per-column KKT test (see the file
// comment) on user j's carried column of the dense slot data, with base
// from kktBase: every support pair must sit within tol (relative per
// pair) of the column minimum min_i g_ij, and not below −tol. It returns
// the column's embedded demand dual θ_j = max(0, min_i g_ij) and whether
// the test failed.
func (d *p2Objective) gateColumn(j int, base []float64, tol float64) (theta float64, violated bool) {
	aMin := math.Inf(1)
	for i := 0; i < d.nI; i++ {
		if g := d.coef[i*d.nJ+j] + base[i]; g < aMin {
			aMin = g
		}
	}
	for i := 0; i < d.nI; i++ {
		k := i*d.nJ + j
		if d.prev[k] <= 0 {
			continue
		}
		c := d.coef[k]
		g := c + base[i]
		sc := tol * (1 + math.Abs(c))
		if g-aMin > sc || g < -sc {
			return 0, true
		}
	}
	if aMin > 0 {
		return aMin, false
	}
	return 0, false
}
