package alm

import (
	"math"
	"math/rand"
	"testing"
)

// gridGroups builds the CSR grid of `slots` slot-major copies of an I×J
// grid — slots·I cloud rows over slots·J users, the layout of the offline
// program — keeping pair (i, j) of every copy where keep[i][j] (nil keeps
// every pair). It carries no rows.
func gridGroups(slots, nI, nJ int, keep [][]bool) *Groups {
	g := &Groups{I: slots * nI, J: slots * nJ, RowPtr: make([]int, 1, slots*nI+1)}
	for r := 0; r < g.I; r++ {
		for j := 0; j < nJ; j++ {
			if keep == nil || keep[r%nI][j] {
				g.Cols = append(g.Cols, r/nI*nJ+j)
			}
		}
		g.RowPtr = append(g.RowPtr, len(g.Cols))
	}
	return g
}

// randomGrid draws a random P2-shaped structured row set: one to three full
// slot copies of an I×J grid or, pruned, one copy thinned to a random
// subset in which every user keeps a cloud (so demand rows are satisfiable;
// a cloud may keep no pair at all) — then per slot a demand row per user
// and a capacity row per cloud. Full grids still consume, between the two,
// the draws that used to pick a random subset of complement rows, so every
// instance is its pre-PR-23 self minus those rows.
func randomGrid(rng *rand.Rand, pruned bool) *Groups {
	nI, nJ, slots := 2+rng.Intn(5), 2+rng.Intn(7), 1
	var keep [][]bool
	if pruned {
		keep = make([][]bool, nI)
		for i := range keep {
			keep[i] = make([]bool, nJ)
		}
		for j := 0; j < nJ; j++ {
			keep[rng.Intn(nI)][j] = true // cover every user
			for i := 0; i < nI; i++ {
				if rng.Float64() < 0.4 {
					keep[i][j] = true
				}
			}
		}
	} else {
		slots = 1 + rng.Intn(3)
	}
	g := gridGroups(slots, nI, nJ, keep)
	for b := 0; b < slots; b++ {
		for j := 0; j < nJ; j++ {
			g.Rows = append(g.Rows, GroupRow{Kind: GroupUserSum, Index: b*nJ + j, RHS: 0.2 + rng.Float64()})
		}
		for i := 0; i < nI && !pruned; i++ {
			if rng.Intn(2) == 0 {
				rng.Float64()
			}
		}
		for i := 0; i < nI; i++ {
			g.Rows = append(g.Rows, GroupRow{Kind: GroupCloudSumNeg, Index: b*nI + i,
				RHS: -(float64(nJ)*0.6 + 2*rng.Float64())})
		}
	}
	return g
}

// denseRow is one structured row written out over the packed variables,
// Σ_t coef[t]·x[idx[t]] ≥ rhs: the reference semantics the kernel must
// match, evaluated nonzero by nonzero.
type denseRow struct {
	idx  []int
	coef []float64
	rhs  float64
}

// activity returns A_k·x, summed over the row's nonzeros.
func (r denseRow) activity(x []float64) float64 {
	s := 0.0
	for t, k := range r.idx {
		s += r.coef[t] * x[k]
	}
	return s
}

// denseRowsOf writes out every row of g.
func denseRowsOf(g *Groups) []denseRow {
	rows := make([]denseRow, 0, len(g.Rows))
	for _, r := range g.Rows {
		d := denseRow{rhs: r.RHS}
		switch r.Kind {
		case GroupUserSum:
			for k, j := range g.Cols {
				if j == r.Index {
					d.idx = append(d.idx, k)
					d.coef = append(d.coef, 1)
				}
			}
		case GroupCloudSumNeg:
			for k := g.RowPtr[r.Index]; k < g.RowPtr[r.Index+1]; k++ {
				d.idx = append(d.idx, k)
				d.coef = append(d.coef, -1)
			}
		}
		rows = append(rows, d)
	}
	return rows
}

// capacityOnly drops g's demand rows, leaving a row set with no user sum:
// addGrad then skips the user multipliers (Groups.hasUser), while axInto
// still fills the user totals in its one fused pass.
func capacityOnly(g *Groups) {
	rows := g.Rows[:0]
	for _, r := range g.Rows {
		if r.Kind != GroupUserSum {
			rows = append(rows, r)
		}
	}
	g.Rows = rows
}

// quadObj returns the strongly convex separable quadratic Σ c_k (x_k − a_k)²
// with deterministic pseudo-random curvature.
func quadObj(n int, rng *rand.Rand) objFunc {
	c, a := make([]float64, n), make([]float64, n)
	for k := 0; k < n; k++ {
		c[k] = 0.5 + rng.Float64()
		a[k] = 2 * rng.Float64()
	}
	return func(x, grad []float64) float64 {
		f := 0.0
		for k := range x {
			d := x[k] - a[k]
			f += c[k] * d * d
			if grad != nil {
				grad[k] = 2 * c[k] * d
			}
		}
		return f
	}
}

// lagrangianMatchesDense draws a random primal and dual point for g and
// requires the structured Lagrangian to agree with the augmented Lagrangian
// written out over g's dense rows (denseRowsOf) on the objective value, the
// full gradient, and every row activity (slack) to 1e-10.
func lagrangianMatchesDense(t *testing.T, trial int, rng *rand.Rand, g *Groups) {
	t.Helper()
	n := len(g.Cols)
	if err := g.validate(n); err != nil {
		t.Fatal(err)
	}
	obj := quadObj(n, rng)
	x := make([]float64, n)
	for k := range x {
		x[k] = 3 * rng.Float64()
	}
	m := len(g.Rows)
	y := make([]float64, m)
	for k := range y {
		y[k] = 2 * rng.Float64()
	}
	rho := 0.5 + 4*rng.Float64()

	pg := &Problem{Obj: obj, N: n, Groups: g}
	ws := workspaceFor(pg)
	gradG := make([]float64, n)
	fg := (&lagrangian{p: pg, y: y, rho: rho, ws: ws}).Eval(x, gradG)

	// The reference: h_ρ(y_k, s_k) per row and ∇f − Σ_k max(0, y_k+ρs_k)·A_k,
	// row by row over the written-out nonzeros.
	gradD := make([]float64, n)
	fd := obj.Eval(x, gradD)
	for k, r := range denseRowsOf(g) {
		// Row activities (slacks are RHS − ax; ax agreement implies both).
		ax := r.activity(x)
		if d := math.Abs(ws.ax[k] - ax); d > 1e-10 {
			t.Fatalf("trial %d row %d (%+v): ax %g vs dense %g (diff %g)",
				trial, k, g.Rows[k], ws.ax[k], ax, d)
		}
		mult := y[k] + rho*(r.rhs-ax)
		if mult <= 0 {
			fd -= y[k] * y[k] / (2 * rho)
			continue
		}
		fd += (mult*mult - y[k]*y[k]) / (2 * rho)
		for p, idx := range r.idx {
			gradD[idx] -= mult * r.coef[p]
		}
	}
	if d := math.Abs(fg-fd) / (1 + math.Abs(fd)); d > 1e-10 {
		t.Fatalf("trial %d: Lagrangian value %g vs dense %g (rel diff %g)", trial, fg, fd, d)
	}
	for k := range gradG {
		if d := math.Abs(gradG[k] - gradD[k]); d > 1e-10*(1+math.Abs(gradD[k])) {
			t.Fatalf("trial %d: grad[%d] = %g vs dense %g", trial, k, gradG[k], gradD[k])
		}
	}
}

// TestGroupsLagrangianMatchesDense is the kernel property test
// (lagrangianMatchesDense) on random P2-shaped row sets over multi-slot and
// pruned grids. Every fifth row set carries capacity rows only.
func TestGroupsLagrangianMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		g := randomGrid(rng, trial%2 == 1)
		if trial%5 == 4 {
			capacityOnly(g)
		}
		lagrangianMatchesDense(t, trial, rng, g)
	}
}

// TestRaggedLagrangianMatchesCons is the kernel property test on pruned
// grids only. Every fourth row set carries capacity rows only.
func TestRaggedLagrangianMatchesCons(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		g := randomGrid(rng, true)
		if trial%4 == 3 {
			capacityOnly(g)
		}
		lagrangianMatchesDense(t, trial, rng, g)
	}
}

// TestRaggedMatchesFullGrid holds a pruned grid to the full grid it was cut
// from, bit for bit: with the pruned pairs at zero, every row activity and
// every kept variable's constraint gradient must be the full grid's, because
// a pruned pair contributes nothing and each total sums the kept pairs in
// the same order.
func TestRaggedMatchesFullGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		g := randomGrid(rng, true)
		if trial%4 == 3 {
			capacityOnly(g)
		}
		full := gridGroups(1, g.I, g.J, nil)
		full.Rows = g.Rows
		n := len(g.Cols)
		if err := g.validate(n); err != nil {
			t.Fatal(err)
		}
		if err := full.validate(len(full.Cols)); err != nil {
			t.Fatal(err)
		}
		x, xFull := make([]float64, n), make([]float64, len(full.Cols))
		for i := 0; i < g.I; i++ {
			for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
				x[k] = 3 * rng.Float64()
				xFull[i*g.J+g.Cols[k]] = x[k]
			}
		}
		mult := make([]float64, len(g.Rows))
		for k := range mult {
			mult[k] = 2 * rng.Float64() * float64(rng.Intn(2))
		}
		eval := func(g *Groups, x []float64) (ax, grad []float64) {
			p := &Problem{N: len(x), Groups: g}
			ws := workspaceFor(p)
			g.axInto(x, ws.ax, &ws.gs)
			grad = make([]float64, len(x))
			g.addGrad(mult, grad, grad, &ws.gs)
			return ws.ax, grad
		}
		ax, grad := eval(g, x)
		axFull, gradFull := eval(full, xFull)
		for k := range ax {
			if math.Float64bits(ax[k]) != math.Float64bits(axFull[k]) {
				t.Fatalf("trial %d row %d (%+v): activity %v pruned, %v full", trial, k, g.Rows[k], ax[k], axFull[k])
			}
		}
		for i := 0; i < g.I; i++ {
			for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
				if v := gradFull[i*g.J+g.Cols[k]]; math.Float64bits(grad[k]) != math.Float64bits(v) {
					t.Fatalf("trial %d: grad[%d] = %v pruned, %v full", trial, k, grad[k], v)
				}
			}
		}
	}
}

// objFunc adapts a closure to fista.Objective without importing fista in
// the test body.
type objFunc func(x, grad []float64) float64

func (f objFunc) Eval(x, grad []float64) float64 { return f(x, grad) }

// slowTailTrial is the one of TestGroupsSolveDualsMatchDense's 25
// instances (I=2, J=8, three slots) that sits on ROADMAP 1(a)'s floor:
// once σ is within tolerance the objective wanders at ~1e-8 relative
// until one inner solve happens not to move the point. It has its own
// test and its own cap.
const slowTailTrial = 5

// denseKKT holds a point and multipliers of a program over g's rows to
// the program's KKT system, written out over denseRowsOf(g) and so sharing
// nothing with the structured kernel but the row definitions: the largest
// row violation (b_k − A_k·x)⁺/(1+|b_k|), the largest complementarity
// min(y_k, A_k·x − b_k)/(1+|b_k|) over rows with slack, and the largest
// stationarity residual |min(x_k, g_k)| with g = ∇f − Σ_k y_k·A_k, relative
// to 1+|∇f_k|. Multipliers are nonnegative by construction.
func denseKKT(g *Groups, obj objFunc, x, y []float64) (viol, comp, stat float64) {
	grad := make([]float64, len(x))
	obj.Eval(x, grad)
	g0 := append([]float64(nil), grad...)
	for k, r := range denseRowsOf(g) {
		s := r.activity(x) - r.rhs
		scale := 1 + math.Abs(r.rhs)
		viol = max(viol, -s/scale)
		if s > 0 {
			comp = max(comp, min(y[k], s)/scale)
		}
		for p, idx := range r.idx {
			grad[idx] -= y[k] * r.coef[p]
		}
	}
	for k, v := range x {
		stat = max(stat, math.Abs(min(v, grad[k]))/(1+math.Abs(g0[k])))
	}
	return viol, comp, stat
}

// solveChecked draws one random strongly convex program and, unless
// maxOuter is 0 (draw only), runs the full augmented-Lagrangian loop on it,
// requires it to converge within maxOuter, and holds the primal point and
// dual multipliers to the program's KKT system (denseKKT): violation and
// complementarity within FeasTol, stationarity within 1e-4. These programs
// give FISTA a bare gradient oracle, and FISTA stops on stagnation, not on
// stationarity: over the 50 solves the worst is 1.7e-5 (violation 1.6e-8,
// complementarity 2.1e-8), where a dropped multiplier aggregate leaves
// O(1). It returns the outer count.
func solveChecked(t *testing.T, trial int, rng *rand.Rand, pruned bool, maxOuter int) int {
	t.Helper()
	g := randomGrid(rng, pruned)
	n := len(g.Cols)
	obj := quadObj(n, rng)
	if maxOuter == 0 {
		return 0
	}
	r, err := Solve(&Problem{Obj: obj, N: n, Groups: g}, Options{MaxOuter: maxOuter})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatalf("trial %d: not converged (stop %q, viol %g)", trial, r.Stop, r.MaxViolation)
	}
	viol, comp, stat := denseKKT(g, obj, r.X, r.Duals)
	if viol > 1e-7 || comp > 1e-7 || stat > 1e-4 {
		t.Errorf("trial %d: KKT residual: violation %g, complementarity %g, stationarity %g",
			trial, viol, comp, stat)
	}
	return r.Outer
}

// TestGroupsSolveDualsMatchDense runs the full augmented-Lagrangian loop
// on randomized strongly convex programs over multi-slot grids and holds
// the converged primal point and dual multipliers to the KKT system written
// out over the dense rows (solveChecked).
func TestGroupsSolveDualsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		maxOuter := 200
		if trial == slowTailTrial {
			maxOuter = 0 // TestGroupsSolveDualsSlowTail
		}
		solveChecked(t, trial, rng, false, maxOuter)
	}
}

// TestRaggedSolveMatchesCons is TestGroupsSolveDualsMatchDense on pruned
// grids.
func TestRaggedSolveMatchesCons(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		solveChecked(t, trial, rng, true, 200)
	}
}

// TestGroupsSolveDualsSlowTail pins the instance the 200-iteration cap
// no longer covers. With the complement rows the solve converged at outer
// 199; on demand + capacity rows it converges at outer 164, because on
// this floor the outer count is decided by which inner solve first leaves
// the point bit-for-bit unmoved, not by a rate. The KKT bars are the other trials'; the cap is this instance's
// measured count plus room, so a stop-rule change that lengthens the
// wander shows up here.
func TestGroupsSolveDualsSlowTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < slowTailTrial; trial++ {
		solveChecked(t, trial, rng, false, 0)
	}
	t.Logf("outer iterations: %d", solveChecked(t, slowTailTrial, rng, false, 250))
}
