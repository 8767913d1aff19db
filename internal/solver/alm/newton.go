package alm

import (
	"context"
	"fmt"
	"math"

	"edgealloc/internal/solver/fista"
)

// This file is the second-order inner solver: a projected (two-metric)
// Newton method on the augmented Lagrangian of a Groups program whose
// objective exposes its curvature. Solve selects it from the problem's
// structure — Groups rows and an Obj that implements Curvature — and from
// nothing a caller can set; every other program keeps FISTA.
//
// It works because the Hessian of such a Lagrangian is not a general
// matrix. With j(k), i(k) the user and cloud of variable k, on the free
// variables it is
//
//	H = D + Σ_j uw_j·u_j u_jᵀ + Σ_i cw_i·v_i v_iᵀ,
//
// D the objective's diagonal, u_j / v_i the indicators of user j's column
// and cloud i's row, uw_j = ρ·(active demand rows on j) and cw_i the
// objective's per-cloud curvature plus ρ·(active capacity rows on i); a
// row is active when its multiplier estimate y_k + ρ s_k is positive. With
// E = [u | v] and W = diag(uw, cw), Woodbury turns H p = −g into
//
//	(W⁻¹ + Eᵀ D⁻¹ E) z = Eᵀ D⁻¹ (−g),   p = D⁻¹(−g − E z),
//
// a bipartite system whose user block is diagonal. Eliminating it leaves
// one SPD Schur complement over the clouds,
//
//	S = diag(1/cw_i + c_i) − Bᵀ diag(1/(1/uw_j + a_j)) B,
//
// B_ji = 1/d_ij over the free pairs and a_j, c_i its row and column sums:
// a Cholesky of size at most I, whatever J and ρ are. A user or cloud of
// zero weight has z = 0 and drops out of the system, and so does a cloud
// that owns no free variable. Assembling S costs Σ_j |F_j|(|F_j|+1)/2
// multiply-adds (F_j user j's free pairs; the lower triangle only), at
// worst I²·J/2 — the order of one objective evaluation — and factoring it
// about m³/6 for its m ≤ I clouds. On a program over the support the
// factorization is the larger part: a 1%-churn slot at I = 50 factors a
// Schur complement of 44 clouds on average, whose L is more than half
// dense, about 24 times. cholSolve interleaves four rows so that the
// factorization runs at the adder's throughput, not its latency, and
// keeps every bit (BenchmarkCholSolve: m = 44 in 5.1 µs against 10.8 µs
// one row at a time, on a 2-vCPU Xeon).
//
// The outer loop's Newton-KKT step (dualStep) solves the same system with
// the active rows' weights taken to infinity and their slacks added to the
// right-hand side, so schur builds S for both.

// Curvature is an objective over a Groups grid whose Hessian is a
// diagonal plus one rank-one term per cloud row of the grid,
//
//	∇²f(x) = diag(d) + Σ_i w_i·v_i v_iᵀ,   d ≥ 0, w ≥ 0.
//
// Curv must report the curvature the objective has. Zeros are fine where
// they are true (a linear term, a cloud without a total term): the solver's
// safeguards are for singular and ill-conditioned systems. They are not for
// a model that contradicts the gradient, under which the steps are merely
// descent steps and convergence is as slow as that implies.
type Curvature interface {
	fista.Objective
	// Curv writes d into diag (one entry per variable) and w into cloud
	// (one entry per cloud row) at the point x.
	Curv(x, diag, cloud []float64)
}

const (
	// newtonDamp is added to every diagonal entry so a variable without
	// curvature of its own (a zero migration price) keeps D invertible.
	newtonDamp = 1e-10
	// armijo is the sufficient-decrease fraction of the arc search.
	armijo = 1e-4
	// flatTol and flatSlope are the search's second acceptance test, for
	// steps whose decrease is below the Lagrangian's rounding error (late
	// outer iterations: g ~ 1e-6, curvature ~ ρ): when the value moved by
	// at most flatTol relative, a trial is accepted on its directional
	// derivative instead — no larger than flatSlope of the starting one in
	// magnitude on the uphill side — which for a convex function bounds any
	// increase by the same rounding error.
	flatTol   = 1e-13
	flatSlope = 0.5
	// minArcMove ends an arc search once a trial would move no variable by
	// more than this, relative to the point's own scale. The bound is on the
	// move and not on α because a step along a direction of no curvature is
	// ~1/newtonDamp long, and the projection arc only starts to differ from
	// "every shrinking variable at its bound" at α ~ 1e-10.
	minArcMove = 1e-15
)

// newtonScratch holds the solver's buffers; nothing in it survives a Solve.
type newtonScratch struct {
	xt, g, gt, diag []float64 // per variable: trial point, ∇L at x and xt, d
	gf, gft         []float64 // per variable: ∇f at x and xt

	// The free variables in cloud-major order — index, cloud, and 1/d then
	// the step — and their permutation into user-major order.
	fk, fi, order []int
	fv            []float64

	cw, c, tc, zc []float64 // per cloud: weight, Σ1/d, Σ−g/d, solution
	cidx          []int     // per cloud: row of S, or −1
	chol, rhs     []float64 // S (lower triangle, row-major) and its rhs
	pci           []int     // one user's rows of S ...
	pv            []float64 // ... and its 1/d there

	uw, a, tu, zu []float64 // per user: weight, Σ1/d, Σ−g/d, solution
	uptr          []int     // per user: start in order (J+1)

	nF int       // the free variables at the iterate newton returned
	qs []float64 // per cloud: dualStep's w_i − κ_i = q_i·s_i

	// back tells dualStep that xt holds the point newton's last accepted
	// trial moved away from, with its f in fBack, its ∇f in gft and its A·x
	// in the workspace's ax.
	back  bool
	fBack float64
}

func (nt *newtonScratch) ensure(n, nI, nJ int) {
	// xt trades places with Workspace.x, so it is sized on its own.
	if cap(nt.xt) < n {
		nt.xt = make([]float64, n)
	}
	if cap(nt.g) < n {
		nt.g = make([]float64, n)
		nt.gt = make([]float64, n)
		nt.gf = make([]float64, n)
		nt.gft = make([]float64, n)
		nt.diag = make([]float64, n)
		nt.fk = make([]int, n)
		nt.fi = make([]int, n)
		nt.order = make([]int, n)
		nt.fv = make([]float64, n)
	}
	nt.xt, nt.g, nt.gt, nt.diag = nt.xt[:n], nt.g[:n], nt.gt[:n], nt.diag[:n]
	nt.gf, nt.gft = nt.gf[:n], nt.gft[:n]
	nt.fk, nt.fi, nt.order, nt.fv = nt.fk[:n], nt.fi[:n], nt.order[:n], nt.fv[:n]
	if cap(nt.cw) < nI {
		nt.cw = make([]float64, nI)
		nt.c = make([]float64, nI)
		nt.tc = make([]float64, nI)
		nt.zc = make([]float64, nI)
		nt.cidx = make([]int, nI)
		nt.chol = make([]float64, nI*nI)
		nt.rhs = make([]float64, nI)
		nt.pci = make([]int, nI)
		nt.pv = make([]float64, nI)
		nt.qs = make([]float64, nI)
	}
	nt.cw, nt.c, nt.tc, nt.zc = nt.cw[:nI], nt.c[:nI], nt.tc[:nI], nt.zc[:nI]
	nt.cidx, nt.qs = nt.cidx[:nI], nt.qs[:nI]
	if cap(nt.uw) < nJ {
		nt.uw = make([]float64, nJ)
		nt.a = make([]float64, nJ)
		nt.tu = make([]float64, nJ)
		nt.zu = make([]float64, nJ)
		nt.uptr = make([]int, nJ+1)
	}
	nt.uw, nt.a, nt.tu, nt.zu = nt.uw[:nJ], nt.a[:nJ], nt.tu[:nJ], nt.zu[:nJ]
	nt.uptr = nt.uptr[:nJ+1]
}

// newton minimizes the augmented Lagrangian lag over x ≥ 0 from x
// (which it may overwrite) and returns the minimizer's buffer, stopping
// when the projected gradient is within tol·(1+|L|) or after maxIters
// steps. Every trial of the arc search is evaluated with its gradient, so
// an accepted trial is the next iteration's evaluation, and — its f, ∇f
// and A·x kept — the next outer iteration's: a warm call, whose x is the
// iterate the previous call returned or the point dualStep moved it to,
// evaluates nothing on entry and only penalizes the kept values under the
// new y and ρ. It keeps the solve's InnerIters, Fallbacks and ProjGrad in
// the workspace's Result, and in its Objective f at the iterate: the first
// entry evaluation's, then each accepted trial's, never a rejected one's.
func (ws *Workspace) newton(lag *lagrangian, cur Curvature, x []float64, warm bool, tol float64, maxIters int, ctx context.Context) ([]float64, error) {
	nt, res := &ws.nt, &ws.res
	gr := lag.p.Groups
	grad, xt, gt := nt.g, nt.xt, nt.gt
	var L float64
	nt.back = false
	if warm {
		L = lag.penalize(res.Objective, ws.axI, nt.gf, grad)
	} else {
		for k, v := range x {
			if v < 0 {
				x[k] = 0
			}
		}
		L = lag.eval(x, nt.gft, grad)
		ws.keep()
	}
	for iters := 0; ; iters++ {
		// Free set, in cloud-major order, and the projected gradient.
		nF, pg := 0, 0.0
		for i := 0; i < gr.I; i++ {
			for k, hi := gr.RowPtr[i], gr.RowPtr[i+1]; k < hi; k++ {
				gk := grad[k]
				if gk > 0 {
					if x[k] <= 0 {
						continue
					}
					gk = min(gk, x[k])
				}
				pg = max(pg, math.Abs(gk))
				nt.fk[nF], nt.fi[nF] = k, i
				nF++
			}
		}
		res.ProjGrad = pg / (1 + math.Abs(L))
		if !(res.ProjGrad > tol) || iters >= maxIters {
			nt.nF = nF
			return x, nil
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("alm: newton aborted after %d iterations: %w", iters, err)
			}
		}
		res.InnerIters++
		nt.back = false

		// The Newton step's arc, or — where the system could not be
		// factored, the step is no descent direction, or its arc holds no
		// acceptable point — the scaled gradient's.
		cur.Curv(x, nt.diag, nt.cw)
		copy(xt, x)
		Lt, ok := 0.0, nt.direction(lag, nF, grad)
		if ok {
			Lt, ok = nt.arcSearch(lag, nF, x, grad, L)
		}
		if !ok {
			res.Fallbacks++
			nt.scaledGradient(gr, nF, grad)
			if Lt, ok = nt.arcSearch(lag, nF, x, grad, L); !ok {
				// No descent the Lagrangian's arithmetic can resolve. The
				// last trial left its multiplier estimates and activities
				// behind; nobody reads them, the iterate's are kept.
				return x, nil
			}
		}
		// The accepted trial becomes the iterate and the buffers trade
		// places, in the workspace too: ws.x stays the buffer X lives in.
		x, xt = xt, x
		grad, gt = gt, grad
		ws.x, nt.xt, nt.g, nt.gt = x, xt, grad, gt
		L = Lt
		nt.fBack, nt.back = res.Objective, true
		ws.keep()
	}
}

// keep makes the last evaluation the iterate's: its f becomes the Result's
// Objective, and its ∇f and A·x trade places with the iterate's buffers.
func (ws *Workspace) keep() {
	ws.res.Objective = ws.lag.obj
	ws.nt.gf, ws.nt.gft = ws.nt.gft, ws.nt.gf
	ws.ax, ws.axI = ws.axI, ws.ax
}

// direction writes the Newton step of the nF free variables into fv,
// reporting false when the Cholesky factorization met a non-positive pivot
// or the step is not a descent direction.
func (nt *newtonScratch) direction(lag *lagrangian, nF int, grad []float64) bool {
	gr, rho := lag.p.Groups, lag.rho

	// Weights: the objective's cloud curvature is in cw; every active row
	// adds ρ on its user or cloud.
	clear(nt.uw)
	for k, r := range gr.Rows {
		if lag.ws.mult[k] <= 0 {
			continue
		}
		if r.Kind == GroupUserSum {
			nt.uw[r.Index] += rho
		} else {
			nt.cw[r.Index] += rho
		}
	}

	clear(nt.tu)
	clear(nt.tc)
	m := nt.schur(gr, nF, grad)
	if !cholSolve(nt.chol[:m*m], nt.rhs[:m], m) {
		return false
	}
	nt.unfold(gr, nF)
	return nt.step(gr, nF, grad) < 0
}

// step turns the 1/d that schur left in fv into the step p_k = (−g_k − zu_j
// − zc_i)/d_k of the system unfold read back, and returns its slope gᵀp.
func (nt *newtonScratch) step(gr *Groups, nF int, grad []float64) float64 {
	fv, gp := nt.fv[:nF], 0.0
	for q, k := range nt.fk[:nF] {
		p := (-grad[k] - nt.zu[gr.Cols[k]] - nt.zc[nt.fi[q]]) * fv[q]
		fv[q] = p
		gp += grad[k] * p
	}
	return gp
}

// schur assembles the Woodbury system of the nF free variables under the
// weights uw and cw — the Schur complement S over the clouds in chol and
// its right-hand side in rhs — and returns S's order m. It writes 1/d into
// fv, the row and column sums of B into a and c, the user-major order of
// the free list into order (uptr[j] ending user j's entries), and e_j =
// 1/(1/uw_j + a_j) into a for every weighted user with a free variable. A
// weight of +Inf is a row whose penalty has gone to infinity: it adds
// nothing to S's diagonal and makes e_j = 1/a_j. The right-hand side is
// the caller's per-user tu and per-cloud tc plus Eᵀ D⁻¹ (−grad), reduced
// onto the clouds.
func (nt *newtonScratch) schur(gr *Groups, nF int, grad []float64) int {
	nI, nJ, cols := gr.I, gr.J, gr.Cols
	fk, fi, fv := nt.fk[:nF], nt.fi[:nF], nt.fv[:nF]

	// a, c = row and column sums of B; tu, tc += Eᵀ D⁻¹ (−g); uptr counts.
	clear(nt.a)
	clear(nt.c)
	clear(nt.uptr)
	for q, k := range fk {
		i := fi[q]
		j := cols[k]
		inv := 1 / (nt.diag[k] + newtonDamp)
		fv[q] = inv
		nt.a[j] += inv
		nt.c[i] += inv
		nt.uptr[j+1]++
		r := -grad[k] * inv
		nt.tu[j] += r
		nt.tc[i] += r
	}

	// The clouds of S: positive weight and at least one free variable.
	m := 0
	for i := 0; i < nI; i++ {
		nt.cidx[i] = -1
		if nt.cw[i] > 0 && nt.c[i] > 0 {
			nt.cidx[i] = m
			m++
		}
	}
	S, rhs := nt.chol[:m*m], nt.rhs[:m]
	clear(S)
	for i, ci := range nt.cidx {
		if ci >= 0 {
			S[ci*m+ci] = 1/nt.cw[i] + nt.c[i]
			rhs[ci] = nt.tc[i]
		}
	}

	// User-major order of the free list (a counting sort, so every user's
	// entries stay in ascending cloud order), then each weighted user's
	// rank-one update of S and rhs. a[j] becomes e_j = 1/(1/uw_j + a_j).
	for j := 0; j < nJ; j++ {
		nt.uptr[j+1] += nt.uptr[j]
	}
	for q, k := range fk {
		j := cols[k]
		nt.order[nt.uptr[j]] = q
		nt.uptr[j]++
	}
	start := 0
	for j := 0; j < nJ; j++ {
		end := nt.uptr[j]
		if nt.uw[j] > 0 && end > start {
			e := 1 / (1/nt.uw[j] + nt.a[j])
			nt.a[j] = e
			np := 0
			for _, q := range nt.order[start:end] {
				if ci := nt.cidx[fi[q]]; ci >= 0 {
					nt.pci[np], nt.pv[np] = ci, fv[q]
					np++
				}
			}
			et := e * nt.tu[j]
			for p := 0; p < np; p++ {
				cp, vp := nt.pci[p], nt.pv[p]
				rhs[cp] -= et * vp
				ev := e * vp
				row := S[cp*m : cp*m+cp+1]
				for q := 0; q <= p; q++ {
					row[nt.pci[q]] -= ev * nt.pv[q]
				}
			}
		}
		start = end
	}
	return m
}

// unfold reads the solution of the system schur assembled, once cholSolve
// has left it in rhs, into the cloud part zc and the user part zu =
// e_j·(tu_j − Σ_i B_ji·zc_i); both are zero off the system.
func (nt *newtonScratch) unfold(gr *Groups, nF int) {
	fi, fv := nt.fi[:nF], nt.fv[:nF]
	for i, ci := range nt.cidx {
		nt.zc[i] = 0
		if ci >= 0 {
			nt.zc[i] = nt.rhs[ci]
		}
	}
	start := 0
	for j := 0; j < gr.J; j++ {
		end := nt.uptr[j]
		nt.zu[j] = 0
		if nt.uw[j] > 0 && end > start {
			s := nt.tu[j]
			for _, q := range nt.order[start:end] {
				s -= fv[q] * nt.zc[fi[q]]
			}
			nt.zu[j] = nt.a[j] * s
		}
		start = end
	}
}

// pivotTol is the smallest squared Cholesky pivot, relative to its row's
// diagonal before the users' downdates (1/cw_i + c_i), that dualStep
// accepts. Below it S is
// singular to working precision — the active rows are dependent, as when
// every demand and every capacity row binds with Λ = ΣC — and the step
// would be round-off.
const pivotTol = 1e-10

// dualStep takes the Newton step of the KKT system on the rows the
// first-order update y = max(0, y⁰+ρs), which the outer loop has just
// written, keeps active, from the iterate x of the last inner solve: with
// g = ∇L(x; y⁰, ρ) = ∇f(x) − Aᵀy on that solve's free variables, H_f the
// objective's Hessian there (see Curvature) and s the active rows' slacks,
//
//	H_f·p − Aᵀ·w = −g,   A·p = s.
//
// At the Lagrangian's minimizer (g = 0) w = M⁻¹s, M = A·H_f⁻¹·Aᵀ over the
// active rows, and y + w is the Newton ascent step of the augmented dual;
// p = H_f⁻¹·Aᵀw is its primal half, and g is what the inner solve left
// undone. It is the system direction solves with every active row's
// penalty weight taken to infinity (uw_j and cw_i set to +Inf, so e_j =
// 1/a_j and 1/cw_i = 0; an inactive cloud keeps its curvature q_i alone):
// schur reduces it onto the clouds, S·κ = rhs, with tu_j = −s_j on each
// active demand row and tc_i = s_i on each active capacity row added to
// −g's reduction, after which w_j = −zu_j, w_i = κ_i + q_i·s_i and, as in
// direction, D·p = −g − zu_j − zc_i. The multipliers become max(0, y + w)
// on the active rows and x becomes max(0, x + p).
//
// It reports false and leaves x and y alone where the system is singular or
// too close to it for the step to mean anything: two active rows on one
// user or cloud, an active row without a free variable, a pivot below
// pivotTol, or a non-finite w.
func (ws *Workspace) dualStep(lag *lagrangian, cur Curvature, x []float64) bool {
	nt, gr, y := &ws.nt, lag.p.Groups, lag.y
	cur.Curv(x, nt.diag, nt.cw)
	clear(nt.uw)
	clear(nt.tu)
	clear(nt.tc)
	inf := math.Inf(1)
	for k, r := range gr.Rows {
		if y[k] <= 0 {
			continue
		}
		s := r.RHS - ws.axI[k]
		if i := r.Index; r.Kind == GroupUserSum {
			if nt.uw[i] == inf {
				return false
			}
			nt.uw[i], nt.tu[i] = inf, -s
		} else {
			if nt.cw[i] == inf {
				return false
			}
			nt.qs[i] = nt.cw[i] * s
			nt.cw[i], nt.tc[i] = inf, s
		}
	}
	m := nt.schur(gr, nt.nF, nt.g)
	S := nt.chol[:m*m]
	if !cholSolve(S, nt.rhs[:m], m) {
		return false
	}
	for i, ci := range nt.cidx {
		if ci >= 0 && S[ci*m+ci]*S[ci*m+ci] < pivotTol*(1/nt.cw[i]+nt.c[i]) {
			return false
		}
	}
	nt.unfold(gr, nt.nF)
	w := func(r GroupRow) float64 {
		if r.Kind == GroupUserSum {
			return -nt.zu[r.Index]
		}
		return nt.zc[r.Index] + nt.qs[r.Index]
	}
	for k, r := range gr.Rows {
		if y[k] <= 0 {
			continue
		}
		if r.Kind == GroupUserSum && !(nt.a[r.Index] > 0) || r.Kind == GroupCloudSumNeg && nt.cidx[r.Index] < 0 {
			return false // the row has no free variable
		}
		if v := w(r); math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	for k, r := range gr.Rows {
		if y[k] > 0 {
			y[k] = max(0, y[k]+w(r))
		}
	}
	// The primal half, projected onto x ≥ 0. A point that moved is
	// evaluated here, so that f, ∇f and A·x stay the iterate's and the next
	// inner solve enters warm — unless it moved back to the point the inner
	// solve accepted its iterate from, as it does at a vertex (as many
	// active rows as free variables fix the point), whose evaluation the
	// arc search's buffers still hold.
	moved := false
	nt.step(gr, nt.nF, nt.g)
	for q, k := range nt.fk[:nt.nF] {
		v := max(0, x[k]+nt.fv[q])
		moved = moved || v != x[k]
		x[k] = v
	}
	switch {
	case !moved:
	case nt.back && samePoint(x, nt.xt):
		lag.obj = nt.fBack
		ws.keep()
		lag.penalize(lag.obj, ws.axI, nt.gf, nt.g)
	default:
		lag.eval(x, nt.gft, nt.g)
		ws.keep()
	}
	return true
}

// samePoint reports whether a and b hold the same bits.
func samePoint(a, b []float64) bool {
	for k, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// cholSolve factors the SPD matrix S (m×m, lower triangle, row-major) in
// place and overwrites b with S⁻¹b, reporting false on a non-positive or
// non-finite pivot.
//
// The factorization runs row by row, each entry L_rc = (S_rc − Σ_{k<c}
// L_rk·L_ck)/L_cc one chain of dependent subtractions in ascending k, so at
// the sizes S has (m ≤ I, tens) it waits on the adder's latency, not its
// throughput. Rows are therefore taken four at a time (cholRows4): their
// entries in the finished columns are four independent chains, and so are
// the partial sums over k < i of the block's own ten entries and four
// right-hand sides, leaving only the in-block tails (k ∈ [i, c), at most
// three terms) serial. Every entry keeps its own order of operations, so
// the factor and the solution are the bits the one-row-at-a-time loop
// gives, and a pivot refused there is refused here.
func cholSolve(S, b []float64, m int) bool {
	i := 0
	for ; i+4 <= m; i += 4 {
		if !cholRows4(S, b, m, i) {
			return false
		}
	}
	for ; i < m; i++ {
		if !cholRow(S, b, m, i) {
			return false
		}
	}
	for i := m - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < m; k++ {
			s -= S[k*m+i] * b[k]
		}
		b[i] = s / S[i*m+i]
	}
	return true
}

// cholPivot is L_ii from its pivot s, reporting false where s is not a
// positive finite number.
func cholPivot(s float64) (float64, bool) {
	if !(s > 0) || math.IsInf(s, 1) {
		return 0, false
	}
	return math.Sqrt(s), true
}

// cholRow factors row i of S, whose rows above are finished, and takes
// b[i] through the forward substitution.
func cholRow(S, b []float64, m, i int) bool {
	ri := S[i*m : i*m+i+1]
	for j := 0; j < i; j++ {
		rj := S[j*m : j*m+j+1]
		s := ri[j]
		for k, l := range rj[:j] {
			s -= ri[k] * l
		}
		ri[j] = s / rj[j]
	}
	s := ri[i]
	for _, l := range ri[:i] {
		s -= l * l
	}
	d, ok := cholPivot(s)
	if !ok {
		return false
	}
	ri[i] = d
	s = b[i]
	for k, l := range ri[:i] {
		s -= l * b[k]
	}
	b[i] = s / d
	return true
}

// cholRows4 is cholRow for rows i..i+3 at once (see cholSolve).
func cholRows4(S, b []float64, m, i int) bool {
	r0 := S[i*m : i*m+i+1]
	r1 := S[(i+1)*m : (i+1)*m+i+2]
	r2 := S[(i+2)*m : (i+2)*m+i+3]
	r3 := S[(i+3)*m : (i+3)*m+i+4]

	// The finished columns j < i.
	for j := 0; j < i; j++ {
		rj := S[j*m : j*m+j+1]
		lj := rj[:j]
		a0, a1, a2, a3 := r0[:len(lj)], r1[:len(lj)], r2[:len(lj)], r3[:len(lj)]
		s0, s1, s2, s3 := r0[j], r1[j], r2[j], r3[j]
		for k, l := range lj {
			s0 -= a0[k] * l
			s1 -= a1[k] * l
			s2 -= a2[k] * l
			s3 -= a3[k] * l
		}
		d := rj[j]
		r0[j], r1[j], r2[j], r3[j] = s0/d, s1/d, s2/d, s3/d
	}

	// The block's own entries and right-hand sides, over k < i.
	a0, a1, a2, a3 := r0[:i], r1[:i], r2[:i], r3[:i]
	s00, s10, s11 := r0[i], r1[i], r1[i+1]
	s20, s21, s22 := r2[i], r2[i+1], r2[i+2]
	s30, s31, s32, s33 := r3[i], r3[i+1], r3[i+2], r3[i+3]
	for k, l0 := range a0 {
		l1, l2, l3 := a1[k], a2[k], a3[k]
		s00 -= l0 * l0
		s10 -= l1 * l0
		s11 -= l1 * l1
		s20 -= l2 * l0
		s21 -= l2 * l1
		s22 -= l2 * l2
		s30 -= l3 * l0
		s31 -= l3 * l1
		s32 -= l3 * l2
		s33 -= l3 * l3
	}
	bb := b[:i]
	u0, u1, u2, u3 := b[i], b[i+1], b[i+2], b[i+3]
	for k, l0 := range a0 {
		v := bb[k]
		u0 -= l0 * v
		u1 -= a1[k] * v
		u2 -= a2[k] * v
		u3 -= a3[k] * v
	}

	// The in-block tails, serially, in the order cholRow takes them.
	d0, ok := cholPivot(s00)
	if !ok {
		return false
	}
	l10, l20, l30 := s10/d0, s20/d0, s30/d0
	d1, ok := cholPivot(s11 - l10*l10)
	if !ok {
		return false
	}
	l21, l31 := (s21-l20*l10)/d1, (s31-l30*l10)/d1
	d2, ok := cholPivot(s22 - l20*l20 - l21*l21)
	if !ok {
		return false
	}
	l32 := (s32 - l30*l20 - l31*l21) / d2
	d3, ok := cholPivot(s33 - l30*l30 - l31*l31 - l32*l32)
	if !ok {
		return false
	}
	r0[i] = d0
	r1[i], r1[i+1] = l10, d1
	r2[i], r2[i+1], r2[i+2] = l20, l21, d2
	r3[i], r3[i+1], r3[i+2], r3[i+3] = l30, l31, l32, d3

	b0 := u0 / d0
	b1 := (u1 - l10*b0) / d1
	b2 := (u2 - l20*b0 - l21*b1) / d2
	b[i], b[i+1], b[i+2], b[i+3] = b0, b1, b2, (u3-l30*b0-l31*b1-l32*b2)/d3
	return true
}

// scaledGradient writes the fallback step −g_k/(d_k + cw_i + uw_j) of the
// nF free variables into fv: steepest descent in the metric of the
// Hessian's own diagonal. It reads the weights direction left in cw and uw.
func (nt *newtonScratch) scaledGradient(gr *Groups, nF int, grad []float64) {
	for q, k := range nt.fk[:nF] {
		i := nt.fi[q]
		nt.fv[q] = -grad[k] / (nt.diag[k] + newtonDamp + nt.cw[i] + nt.uw[gr.Cols[k]])
	}
}

// arcSearch backtracks along the projection arc x(α) = max(0, x + α·fv)
// from α = 1, writing each trial into xt (whose other entries already equal
// x) and evaluating it with its gradient into gt, ∇f into gft. It returns
// the accepted trial's value.
func (nt *newtonScratch) arcSearch(lag *lagrangian, nF int, x, grad []float64, L float64) (float64, bool) {
	xt, gt := nt.xt, nt.gt
	fk, fv := nt.fk[:nF], nt.fv[:nF]
	flat := flatTol * (1 + math.Abs(L))
	scale, reach := 1.0, 0.0
	for q, k := range fk {
		scale = max(scale, math.Abs(x[k]))
		reach = max(reach, math.Abs(fv[q]))
	}
	for alpha := 1.0; alpha*reach >= minArcMove*scale; alpha *= 0.5 {
		gd := 0.0
		for q, k := range fk {
			v := max(x[k]+alpha*fv[q], 0)
			xt[k] = v
			gd += grad[k] * (v - x[k])
		}
		if !(gd < 0) {
			continue
		}
		Lt := lag.eval(xt, nt.gft, gt)
		if Lt <= L+armijo*gd {
			return Lt, true
		}
		if math.Abs(Lt-L) <= flat {
			gdt := 0.0
			for _, k := range fk {
				gdt += gt[k] * (xt[k] - x[k])
			}
			if gdt <= -flatSlope*gd {
				return Lt, true
			}
		}
	}
	return 0, false
}
