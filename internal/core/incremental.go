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
//     carry from (t = 0; a restored run carries its last slot). Everyone
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
//     (kktBase computes the per-cloud part), and the ≥-demand row admits
//     a dual θ_j ≥ 0 with g_ij = θ_j on the support and g_ij ≥ θ_j off
//     it exactly when every support pair sits at the column minimum
//     min_i g_ij and that minimum is ≥ 0. Complementary slackness asks
//     one thing more: θ_j > 0 only on a tight demand row. A carried
//     column that over-serves, Σ_i x'_ij − λ_j > IncrementalTol·(1+λ_j),
//     must take θ_j = 0, so its support pairs must also sit at g_ij ≈ 0.
//     The gate tests all of it at IncrementalTol (relative per pair, like
//     the pricing pass): violators are re-admitted to the active set
//     with their carryover support seeded, the reduced program is
//     rebuilt, and the solve resumes warm until a round changes
//     nothing. Certified frozen users take θ_j = max(0, min_i g_ij), or
//     0 on an over-served column.
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
// O(I·active). The frozen flow and the frozen users' support walk the
// support index (frozenFlow), O(J + support), which the commit refreshes
// on the columns the slot wrote. The static coefficients are bound as I
// price terms beside a per-pair service-quality term that only re-attached
// columns recompute (p2Objective.bindStatic), and are read as their sum
// where they are needed. One pass streams the I×J grid because what it
// computes involves every pair: the gate's column minima (gateColumns).
// The carried totals X'_i of the committed decision (p2Objective.carry)
// stream the new decision too; walking the support index for them measured
// no gain. The decision itself costs O(I·active): the slot assembles it in
// the spare of two persistent grids after re-copying the columns the
// previous slot wrote (gridPair.level), returns it as a view, and logs only
// the columns it wrote (schedlog.go), so a committed slot writes no full
// grid and allocates two small slices. DESIGN.md §7f has the measured
// table.

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
		if !s.support.fresh {
			s.support.rebuild(prev)
		}
		s.frozenFlow(prev)
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

// frozenFlow collects the two things the slot needs of its frozen columns
// from the support index, walking the users not marked active in ascending
// order and each one's listed clouds. Into frozenTot (cleared) goes, per
// cloud, the flow prev carries for those users: a sum over them in
// ascending order, the order the capacity right-hand sides have always
// been rounded in (X'_i less the active users' flow is the same number
// rounded differently). The entries the walk skips are ±0 — prev is
// post-repair, or a restore validated it nonnegative — and adding ±0 to a
// sum that starts at +0 changes no bit of it, so each sum is the full
// masked one. Appended to frozenSupp are those users' support pairs, and
// into frozenServed[j] goes each one's carried service Σ_i x'_ij: all of
// prev the freeze gate reads.
func (s *singleState) frozenFlow(prev []float64) {
	nJ := len(s.active)
	for j, a := range s.active {
		if a {
			continue
		}
		served := 0.0
		for _, i := range s.support.of(j) {
			v := prev[int(i)*nJ+j]
			s.frozenTot[i] += v
			served += v
			s.frozenSupp = append(s.frozenSupp, supportPair{i, int32(j)})
		}
		s.frozenServed[j] = served
	}
}

// supportIndex lists, per user, the clouds that carry its flow in the
// carried decision: the i with x'_ij > 0, ascending. It is the carried
// decision's support read column by column without a pass over the grid,
// kept current by the single program's commit on the columns a slot wrote (StepCtx).
// A commit of every column, and the state a run starts or restores from,
// leave it stale; the next slot that freezes users rebuilds it (buildRows).
// The incremental tier alone keeps one.
type supportIndex struct {
	nI, nJ int
	// User j's clouds are clouds[j·I : j·I+n[j]].
	clouds []int32
	n      []int32
	fresh  bool
}

func newSupportIndex(nI, nJ int) supportIndex {
	return supportIndex{nI: nI, nJ: nJ, clouds: make([]int32, nI*nJ), n: make([]int32, nJ)}
}

// of returns user j's listed clouds.
func (x *supportIndex) of(j int) []int32 {
	return x.clouds[j*x.nI : j*x.nI+int(x.n[j])]
}

// rebuild lists the support of every column of the grid g.
func (x *supportIndex) rebuild(g []float64) {
	clear(x.n)
	for i := 0; i < x.nI; i++ {
		for j, v := range g[i*x.nJ : (i+1)*x.nJ] {
			if v > 0 {
				x.clouds[j*x.nI+int(x.n[j])] = int32(i)
				x.n[j]++
			}
		}
	}
	x.fresh = true
}

// refresh re-lists the columns cols of the grid g, which differs from the
// one the index describes on those columns alone. A stale index stays
// stale.
func (x *supportIndex) refresh(g []float64, cols []int) {
	if !x.fresh {
		return
	}
	for _, j := range cols {
		c, n := x.clouds[j*x.nI:(j+1)*x.nI], 0
		for i := range c {
			if g[i*x.nJ+j] > 0 {
				c[n] = int32(i)
				n++
			}
		}
		x.n[j] = int32(n)
	}
}

// gateFrozen certifies every frozen column against the round's
// multipliers, recording the certified columns' demand duals. A violator
// joins the active set with its candidate pairs seeded (nearest clouds
// plus carryover support); its demand row re-enters warm at the θ already
// in the working duals — the committed value, or the gate's estimate from
// an earlier round. It returns the number of users re-admitted.
func (o *OnlineApprox) gateFrozen(t int) int {
	s := o.single
	o.obj.gateColumns(s.colMin, s.viol, s.frozenSupp, s.frozenServed, o.inst.Workload, s.base, o.opts.IncrementalTol)
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

// gateColumns is the freeze gate's per-column KKT test (see the file
// comment) on every column of the dense slot data, with base from kktBase:
// every support pair of a carried column must sit within tol (relative per
// pair) of the column minimum min_i g_ij, and not below −tol; where the
// column over-serves, served[j] − lam[j] > tol·(1+lam[j]), also not above
// tol. One streaming pass over the rows leaves colMin[j] = min_i g_ij — a
// minimum is exact, so the order the clouds are taken in cannot change it —
// instead of J walks down the grid's columns (at stride J every load of a
// walk is a cache miss); the support pairs listed in supp are then tested
// against it, and viol[j] is set where one fails. Last, an over-served
// column's colMin[j] is set to 0, so that column j's demand dual is
// max(0, colMin[j]) on every column the gate certifies. supp and served
// must hold the support and carried service of every column whose verdict
// is read (frozenFlow). It reads each coefficient as wa_i + sq_ij, the sum
// bindStatic stores where a dense grid exists, so the pass streams the
// service-quality grid.
func (d *p2Objective) gateColumns(colMin []float64, viol []bool, supp []supportPair, served, lam, base []float64, tol float64) {
	nJ := d.nJ
	colMin = colMin[:nJ]
	w, b := d.wa[0], base[0]
	for j, q := range d.sq[:nJ] {
		colMin[j] = w + q + b
	}
	i := 1
	for ; i+4 <= d.nI; i += 4 {
		w0, w1, w2, w3 := d.wa[i], d.wa[i+1], d.wa[i+2], d.wa[i+3]
		b0, b1, b2, b3 := base[i], base[i+1], base[i+2], base[i+3]
		r0, r1, r2, r3 := d.sq[i*nJ:(i+1)*nJ], d.sq[(i+1)*nJ:(i+2)*nJ], d.sq[(i+2)*nJ:(i+3)*nJ], d.sq[(i+3)*nJ:(i+4)*nJ]
		for j, m := range colMin {
			colMin[j] = min(m, w0+r0[j]+b0, w1+r1[j]+b1, w2+r2[j]+b2, w3+r3[j]+b3)
		}
	}
	for ; i < d.nI; i++ {
		w, b = d.wa[i], base[i]
		for j, q := range d.sq[i*nJ : (i+1)*nJ] {
			colMin[j] = min(colMin[j], w+q+b)
		}
	}
	clear(viol)
	for _, e := range supp {
		c := d.wa[e.i] + d.sq[int(e.i)*nJ+int(e.j)]
		g := c + base[e.i]
		sc := tol * (1 + math.Abs(c))
		if g-colMin[e.j] > sc || g < -sc || g > sc && overServed(served[e.j], lam[e.j], tol) {
			viol[e.j] = true
		}
	}
	for _, e := range supp {
		if overServed(served[e.j], lam[e.j], tol) {
			colMin[e.j] = 0
		}
	}
}

// overServed reports whether a carried column serving served against the
// demand lam leaves its demand row slack at the gate's tolerance, so that
// complementary slackness pins its dual θ_j to 0.
func overServed(served, lam, tol float64) bool { return served-lam > tol*(1+lam) }
