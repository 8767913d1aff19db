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

// consFromGroups materializes the generic sparse-row form of a structured
// row set over the packed variables — the reference semantics the kernel
// must match.
func consFromGroups(g *Groups) []Constraint {
	cons := make([]Constraint, 0, len(g.Rows))
	for _, r := range g.Rows {
		var idx []int
		var coef []float64
		switch r.Kind {
		case GroupUserSum:
			for k, j := range g.Cols {
				if j == r.Index {
					idx = append(idx, k)
					coef = append(coef, 1)
				}
			}
		case GroupCloudSumNeg:
			for k := g.RowPtr[r.Index]; k < g.RowPtr[r.Index+1]; k++ {
				idx = append(idx, k)
				coef = append(coef, -1)
			}
		}
		cons = append(cons, Constraint{Idx: idx, Coeffs: coef, RHS: r.RHS})
	}
	return cons
}

// capacityOnly drops g's demand rows, leaving a row set with no user sum —
// the kernels then skip the user-total pass (Groups.hasUser).
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
// requires the structured Lagrangian to agree with the sparse-row reference
// (Problem.Cons) on the objective value, the full gradient, and every row
// activity (slack) to 1e-10.
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
	pd := &Problem{Obj: obj, N: n, Cons: consFromGroups(g)}
	wsg, wsd := workspaceFor(pg), workspaceFor(pd)

	// Row activities (slacks are RHS − ax; ax agreement implies both).
	pg.axInto(x, wsg.ax, &wsg.gs, 1)
	pd.axInto(x, wsd.ax, &wsd.gs, 1)
	for k := range wsg.ax {
		if d := math.Abs(wsg.ax[k] - wsd.ax[k]); d > 1e-10 {
			t.Fatalf("trial %d row %d (%+v): ax %g vs dense %g (diff %g)",
				trial, k, g.Rows[k], wsg.ax[k], wsd.ax[k], d)
		}
	}

	lg := &lagrangian{p: pg, y: y, rho: rho, ws: wsg, workers: 1}
	ld := &lagrangian{p: pd, y: y, rho: rho, ws: wsd, workers: 1}
	gradG := make([]float64, n)
	gradD := make([]float64, n)
	fg := lg.Eval(x, gradG)
	fd := ld.Eval(x, gradD)
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
			g.axInto(x, ws.ax, &ws.gs, 1)
			grad = make([]float64, len(x))
			g.addGrad(mult, grad, grad, &ws.gs, 1)
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

// solveBothRows draws one random strongly convex program and, unless
// maxOuter is 0 (draw only), runs the full augmented-Lagrangian loop on it
// with both row representations, requires both to converge within
// maxOuter, and holds the primal points and dual multipliers to each
// other. It returns the two outer counts.
func solveBothRows(t *testing.T, trial int, rng *rand.Rand, pruned bool, maxOuter int) (structured, dense int) {
	t.Helper()
	g := randomGrid(rng, pruned)
	n := len(g.Cols)
	obj := quadObj(n, rng)
	if maxOuter == 0 {
		return 0, 0
	}
	opts := Options{MaxOuter: maxOuter}

	rg, err := Solve(&Problem{Obj: obj, N: n, Groups: g}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Solve(&Problem{Obj: obj, N: n, Cons: consFromGroups(g)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rg.Converged || !rd.Converged {
		t.Fatalf("trial %d: converged structured=%v dense=%v (viol %g / %g)",
			trial, rg.Converged, rd.Converged, rg.MaxViolation, rd.MaxViolation)
	}
	if d := math.Abs(rg.Objective-rd.Objective) / (1 + math.Abs(rd.Objective)); d > 1e-6 {
		t.Errorf("trial %d: objective %g vs dense %g", trial, rg.Objective, rd.Objective)
	}
	for k := range rg.X {
		if d := math.Abs(rg.X[k] - rd.X[k]); d > 1e-5 {
			t.Errorf("trial %d: x[%d] = %g vs dense %g", trial, k, rg.X[k], rd.X[k])
		}
	}
	for k := range rg.Duals {
		if d := math.Abs(rg.Duals[k] - rd.Duals[k]); d > 1e-4*(1+math.Abs(rd.Duals[k])) {
			t.Errorf("trial %d: dual[%d] = %g vs dense %g", trial, k, rg.Duals[k], rd.Duals[k])
		}
	}
	return rg.Outer, rd.Outer
}

// TestGroupsSolveDualsMatchDense runs the full augmented-Lagrangian loop
// on randomized strongly convex programs over multi-slot grids with both
// row representations and requires the converged primal points and dual
// multipliers to agree.
func TestGroupsSolveDualsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		maxOuter := 200
		if trial == slowTailTrial {
			maxOuter = 0 // TestGroupsSolveDualsSlowTail
		}
		solveBothRows(t, trial, rng, false, maxOuter)
	}
}

// TestRaggedSolveMatchesCons is TestGroupsSolveDualsMatchDense on pruned
// grids.
func TestRaggedSolveMatchesCons(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		solveBothRows(t, trial, rng, true, 200)
	}
}

// TestGroupsSolveDualsSlowTail pins the instance the 200-iteration cap
// no longer covers. With its complement rows (before PR 23) both
// representations converged at outer 199; on demand + capacity rows the
// structured solve converges at outer 164 and the sparse-row one at 211 —
// same program, sums in a different order — because on this floor the
// outer count is decided by which inner solve first leaves the point
// bit-for-bit unmoved (ROADMAP 1(a)), not by a rate. The agreement bars
// are the other trials'; the cap is this instance's measured count plus
// room, so a stop-rule change that lengthens the wander shows up here.
func TestGroupsSolveDualsSlowTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < slowTailTrial; trial++ {
		solveBothRows(t, trial, rng, false, 0)
	}
	structured, dense := solveBothRows(t, slowTailTrial, rng, false, 250)
	t.Logf("outer iterations: structured %d, dense %d", structured, dense)
}

// checkWorkersByteIdentical pins the determinism contract of the
// structured kernels on one random program: with the parallel grain forced
// down so every pass actually fans out, Solve must produce bitwise-identical
// primal and dual vectors for any worker count.
func checkWorkersByteIdentical(t *testing.T, rng *rand.Rand, pruned bool) {
	old := parGrain
	parGrain = 1
	defer func() { parGrain = old }()

	g := randomGrid(rng, pruned)
	n := len(g.Cols)
	obj := quadObj(n, rng)
	solve := func(workers int) *Result {
		res, err := Solve(&Problem{Obj: obj, N: n, Groups: g},
			Options{MaxOuter: 60, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := *res
		out.X = append([]float64(nil), res.X...)
		out.Duals = append([]float64(nil), res.Duals...)
		return &out
	}
	base := solve(1)
	for _, w := range []int{2, 3, 8} {
		got := solve(w)
		for k := range base.X {
			if got.X[k] != base.X[k] {
				t.Fatalf("workers=%d: X[%d] = %v != serial %v", w, k, got.X[k], base.X[k])
			}
		}
		for k := range base.Duals {
			if got.Duals[k] != base.Duals[k] {
				t.Fatalf("workers=%d: dual[%d] = %v != serial %v", w, k, got.Duals[k], base.Duals[k])
			}
		}
	}
}

// TestGroupsParallelByteIdentical is the determinism contract on a
// multi-slot grid.
func TestGroupsParallelByteIdentical(t *testing.T) {
	checkWorkersByteIdentical(t, rand.New(rand.NewSource(11)), false)
}

// TestRaggedParallelByteIdentical is the determinism contract on a pruned
// grid.
func TestRaggedParallelByteIdentical(t *testing.T) {
	checkWorkersByteIdentical(t, rand.New(rand.NewSource(29)), true)
}
