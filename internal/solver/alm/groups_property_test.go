package alm

import (
	"math"
	"math/rand"
	"testing"
)

// denseFromGroups materializes the generic sparse-row form of a
// structured row set — the reference semantics the kernel must match.
func denseFromGroups(g *Groups) []Constraint {
	nI, nJ := g.I, g.J
	nIJ := nI * nJ
	cons := make([]Constraint, 0, len(g.Rows))
	for _, r := range g.Rows {
		off := r.Block * nIJ
		var idx []int
		var coef []float64
		switch r.Kind {
		case GroupUserSum:
			for i := 0; i < nI; i++ {
				idx = append(idx, off+i*nJ+r.Index)
				coef = append(coef, 1)
			}
		case GroupCloudSumNeg:
			for j := 0; j < nJ; j++ {
				idx = append(idx, off+r.Index*nJ+j)
				coef = append(coef, -1)
			}
		}
		cons = append(cons, Constraint{Idx: idx, Coeffs: coef, RHS: r.RHS})
	}
	return cons
}

// randomGroups builds a random P2-shaped structured row set: per block,
// a demand row per user, then a capacity row per cloud. Between the two it
// still consumes the draws that used to pick a random subset of complement
// rows, so every instance is its pre-PR-23 self minus those rows.
func randomGroups(rng *rand.Rand) *Groups {
	g := &Groups{
		I:      2 + rng.Intn(5),
		J:      2 + rng.Intn(7),
		Blocks: 1 + rng.Intn(3),
	}
	for b := 0; b < g.Blocks; b++ {
		for j := 0; j < g.J; j++ {
			g.Rows = append(g.Rows, GroupRow{
				Block: b, Kind: GroupUserSum, Index: j, RHS: 0.2 + rng.Float64()})
		}
		for i := 0; i < g.I; i++ {
			if rng.Intn(2) == 0 {
				rng.Float64()
			}
		}
		for i := 0; i < g.I; i++ {
			g.Rows = append(g.Rows, GroupRow{
				Block: b, Kind: GroupCloudSumNeg, Index: i,
				RHS: -(float64(g.J)*0.6 + 2*rng.Float64())})
		}
	}
	return g
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

// quad returns a strongly convex separable quadratic Σ c_k (x_k − a_k)²
// with deterministic pseudo-random curvature.
func quadObj(n int, rng *rand.Rand) *struct {
	c, a []float64
} {
	q := &struct{ c, a []float64 }{make([]float64, n), make([]float64, n)}
	for k := 0; k < n; k++ {
		q.c[k] = 0.5 + rng.Float64()
		q.a[k] = 2 * rng.Float64()
	}
	return q
}

// TestGroupsLagrangianMatchesDense is the kernel property test: on
// randomized P2-shaped row sets and random primal/dual points, the
// structured Lagrangian must agree with the dense-row reference on the
// objective value, the full gradient, and every row activity (slack) to
// 1e-10. Every fourth row set carries capacity rows only.
func TestGroupsLagrangianMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		g := randomGroups(rng)
		if trial%4 == 3 {
			capacityOnly(g)
		}
		n := g.Blocks * g.I * g.J
		if err := g.validate(n); err != nil {
			t.Fatal(err)
		}
		cons := denseFromGroups(g)
		q := quadObj(n, rng)
		obj := func(x, grad []float64) float64 {
			f := 0.0
			for k := range x {
				d := x[k] - q.a[k]
				f += q.c[k] * d * d
				if grad != nil {
					grad[k] = 2 * q.c[k] * d
				}
			}
			return f
		}

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

		pg := &Problem{Obj: objFunc(obj), N: n, Groups: g}
		pd := &Problem{Obj: objFunc(obj), N: n, Cons: cons}
		var wsg, wsd Workspace
		wsg.ensure(n, m)
		wsg.gs.ensure(g)
		wsd.ensure(n, m)

		// Row activities (slacks are RHS − ax; ax agreement implies both).
		pg.axInto(x, wsg.ax, &wsg.gs, 1)
		pd.axInto(x, wsd.ax, &wsd.gs, 1)
		for k := range wsg.ax {
			if d := math.Abs(wsg.ax[k] - wsd.ax[k]); d > 1e-10 {
				t.Fatalf("trial %d row %d (%+v): ax %g vs dense %g (diff %g)",
					trial, k, g.Rows[k], wsg.ax[k], wsd.ax[k], d)
			}
		}

		lg := &lagrangian{p: pg, y: y, rho: rho, ws: &wsg, workers: 1}
		ld := &lagrangian{p: pd, y: y, rho: rho, ws: &wsd, workers: 1}
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
}

// objFunc adapts a closure to fista.Objective without importing fista in
// the test body.
type objFunc func(x, grad []float64) float64

func (f objFunc) Eval(x, grad []float64) float64 { return f(x, grad) }

// slowTailTrial is the one of TestGroupsSolveDualsMatchDense's 25
// instances (I=2, J=8, three blocks) that sits on ROADMAP 1(a)'s floor:
// once σ is within tolerance the objective wanders at ~1e-8 relative
// until one inner solve happens not to move the point. It has its own
// test and its own cap.
const slowTailTrial = 5

// solveBothRows draws one random strongly convex program and, unless
// maxOuter is 0 (draw only), runs the full augmented-Lagrangian loop on it
// with both row representations, requires both to converge within
// maxOuter, and holds the primal points and dual multipliers to each
// other. It returns the two outer counts.
func solveBothRows(t *testing.T, trial int, rng *rand.Rand, maxOuter int) (structured, dense int) {
	t.Helper()
	g := randomGroups(rng)
	n := g.Blocks * g.I * g.J
	cons := denseFromGroups(g)
	q := quadObj(n, rng)
	if maxOuter == 0 {
		return 0, 0
	}
	obj := objFunc(func(x, grad []float64) float64 {
		f := 0.0
		for k := range x {
			d := x[k] - q.a[k]
			f += q.c[k] * d * d
			if grad != nil {
				grad[k] = 2 * q.c[k] * d
			}
		}
		return f
	})
	lower := make([]float64, n)
	opts := Options{MaxOuter: maxOuter}

	rg, err := Solve(&Problem{Obj: obj, N: n, Lower: lower, Groups: g}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Solve(&Problem{Obj: obj, N: n, Lower: lower, Cons: cons}, opts)
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
// on randomized strongly convex programs with both row representations
// and requires the converged primal points and dual multipliers to agree.
func TestGroupsSolveDualsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		maxOuter := 200
		if trial == slowTailTrial {
			maxOuter = 0 // TestGroupsSolveDualsSlowTail
		}
		solveBothRows(t, trial, rng, maxOuter)
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
		solveBothRows(t, trial, rng, 0)
	}
	structured, dense := solveBothRows(t, slowTailTrial, rng, 250)
	t.Logf("outer iterations: structured %d, dense %d", structured, dense)
}

// TestGroupsParallelByteIdentical pins the determinism contract of the
// structured kernels: with the parallel grain forced down so every pass
// actually fans out, Solve must produce bitwise-identical primal and dual
// vectors for any worker count.
func TestGroupsParallelByteIdentical(t *testing.T) {
	old := parGrain
	parGrain = 1
	defer func() { parGrain = old }()

	rng := rand.New(rand.NewSource(11))
	g := randomGroups(rng)
	n := g.Blocks * g.I * g.J
	q := quadObj(n, rng)
	obj := objFunc(func(x, grad []float64) float64 {
		f := 0.0
		for k := range x {
			d := x[k] - q.a[k]
			f += q.c[k] * d * d
			if grad != nil {
				grad[k] = 2 * q.c[k] * d
			}
		}
		return f
	})
	lower := make([]float64, n)
	solve := func(workers int) *Result {
		res, err := Solve(&Problem{Obj: obj, N: n, Lower: lower, Groups: g},
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
