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
// affected users' columns, and the incremental tier re-solves those
// alone:
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
//
// What a slot costs. The program, its seeding, the candidate builder and
// the repair of the committed decision are proportional to the movers:
// O(I·active). Four passes remain that stream the I×J grid once each,
// sequentially, because what they compute involves every pair: the static
// coefficients (a price moves a whole row: one add per pair, the
// service-quality term cached — p2Objective.bindStatic), the frozen flow
// and the frozen users' support (frozenFlow), the gate's column minima
// (gateColumns), and the carried totals X'_i of the committed decision
// (p2Objective.carry). The decision itself costs O(I·active): the slot
// assembles it in the spare of two persistent grids after re-copying the
// columns the previous slot wrote (gridPair.level), returns it as a view,
// and logs only the columns it wrote (schedlog.go), so a committed slot
// writes no full grid beside the coefficients and allocates two small
// slices. DESIGN.md §7f has the measured table.

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
			s.userPos[j] = len(s.actList)
			s.actList = append(s.actList, j)
		}
	}
	clear(s.frozenTot)
	s.frozenSupp = s.frozenSupp[:0]
	if len(s.actList) < nJ {
		s.frozenSupp = frozenFlow(s.frozenTot, prev, s.active, s.frozenSupp)
	}
	s.rows = s.rows[:0]
	for p, j := range s.actList {
		s.rows = append(s.rows, alm.GroupRow{Kind: alm.GroupUserSum, Index: p, RHS: in.Workload[j]})
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

// supportPair names one pair (i, j) with x'_ij > 0.
type supportPair struct{ i, j int32 }

// frozenFlow streams the carried decision once for the two things the
// slot needs of its frozen columns. Into dst goes, per cloud, the flow prev
// carries for the users not marked active: each a sum over those users in
// ascending order, the order the capacity right-hand sides have always
// been rounded in (X'_i less the active users' flow is the same number
// rounded differently). Appended to supp (and returned) are those users'
// support pairs, which is all of prev the freeze gate reads. Four rows
// advance abreast for the reason Alloc.CloudTotalsInto gives.
func frozenFlow(dst, prev []float64, active []bool, supp []supportPair) []supportPair {
	n := len(active)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		r0, r1, r2, r3 := prev[i*n:(i+1)*n], prev[(i+1)*n:(i+2)*n], prev[(i+2)*n:(i+3)*n], prev[(i+3)*n:(i+4)*n]
		var f0, f1, f2, f3 float64
		for j, a := range active {
			if a {
				continue
			}
			v0, v1, v2, v3 := r0[j], r1[j], r2[j], r3[j]
			f0 += v0
			f1 += v1
			f2 += v2
			f3 += v3
			if v0 > 0 {
				supp = append(supp, supportPair{int32(i), int32(j)})
			}
			if v1 > 0 {
				supp = append(supp, supportPair{int32(i + 1), int32(j)})
			}
			if v2 > 0 {
				supp = append(supp, supportPair{int32(i + 2), int32(j)})
			}
			if v3 > 0 {
				supp = append(supp, supportPair{int32(i + 3), int32(j)})
			}
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = f0, f1, f2, f3
	}
	for ; i < len(dst); i++ {
		row, f := prev[i*n:(i+1)*n], 0.0
		for j, a := range active {
			if a {
				continue
			}
			f += row[j]
			if row[j] > 0 {
				supp = append(supp, supportPair{int32(i), int32(j)})
			}
		}
		dst[i] = f
	}
	return supp
}

// gateFrozen certifies every frozen column against the round's
// multipliers, recording the certified columns' demand duals. A violator
// joins the active set with its candidate pairs seeded (nearest clouds
// plus carryover support); its demand row re-enters warm at the θ already
// in the working duals — the committed value, or the gate's estimate from
// an earlier round. It returns the number of users re-admitted.
func (o *OnlineApprox) gateFrozen(t int) int {
	s := o.single
	o.obj.gateColumns(s.colMin, s.viol, s.frozenSupp, s.base, o.opts.IncrementalTol)
	readmitted := 0
	for j, act := range s.active {
		if act {
			continue
		}
		if s.viol[j] {
			s.active[j] = true
			o.seedUser(t, j, o.prev.X)
			readmitted++
			continue
		}
		s.duals[j] = max(0, s.colMin[j])
	}
	return readmitted
}

// gateColumns is gateColumn for every column of the dense slot data at
// once, without its J walks down the grid's columns (at stride J every
// load of a walk is a cache miss). One streaming pass over the rows leaves
// colMin[j] = min_i g_ij — a minimum is exact, so the order the clouds are
// taken in cannot change it, and column j's demand dual is
// max(0, colMin[j]) as gateColumn returns it — and the support pairs
// listed in supp are then tested against it, pair for pair as gateColumn
// tests them: viol[j] is set where it reports a violation. supp must hold
// the support of every column whose verdict is read (frozenFlow).
func (d *p2Objective) gateColumns(colMin []float64, viol []bool, supp []supportPair, base []float64, tol float64) {
	nJ := d.nJ
	colMin = colMin[:nJ]
	b := base[0]
	for j, c := range d.coef[:nJ] {
		colMin[j] = c + b
	}
	i := 1
	for ; i+4 <= d.nI; i += 4 {
		b0, b1, b2, b3 := base[i], base[i+1], base[i+2], base[i+3]
		r0, r1, r2, r3 := d.coef[i*nJ:(i+1)*nJ], d.coef[(i+1)*nJ:(i+2)*nJ], d.coef[(i+2)*nJ:(i+3)*nJ], d.coef[(i+3)*nJ:(i+4)*nJ]
		for j, m := range colMin {
			colMin[j] = min(m, r0[j]+b0, r1[j]+b1, r2[j]+b2, r3[j]+b3)
		}
	}
	for ; i < d.nI; i++ {
		b = base[i]
		for j, c := range d.coef[i*nJ : (i+1)*nJ] {
			colMin[j] = min(colMin[j], c+b)
		}
	}
	clear(viol)
	for _, e := range supp {
		c := d.coef[int(e.i)*nJ+int(e.j)]
		g := c + base[e.i]
		sc := tol * (1 + math.Abs(c))
		if g-colMin[e.j] > sc || g < -sc {
			viol[e.j] = true
		}
	}
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
