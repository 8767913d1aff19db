package alm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomRagged builds a random ragged CSR layout over an I×J grid with a
// P2-shaped row set (demand per user, capacity per cloud). Every user gets
// at least one candidate cloud so demand rows are satisfiable; a cloud may
// keep no pair at all.
func randomRagged(rng *rand.Rand) *Groups {
	g := &Groups{
		I:      2 + rng.Intn(5),
		J:      2 + rng.Intn(7),
		Blocks: 1,
	}
	member := make([][]bool, g.I)
	for i := range member {
		member[i] = make([]bool, g.J)
	}
	for j := 0; j < g.J; j++ {
		member[rng.Intn(g.I)][j] = true // cover every user
		for i := 0; i < g.I; i++ {
			if rng.Float64() < 0.4 {
				member[i][j] = true
			}
		}
	}
	g.RowPtr = make([]int, g.I+1)
	for i := 0; i < g.I; i++ {
		g.RowPtr[i+1] = g.RowPtr[i]
		for j := 0; j < g.J; j++ {
			if member[i][j] {
				g.Cols = append(g.Cols, j)
				g.RowPtr[i+1]++
			}
		}
	}
	for j := 0; j < g.J; j++ {
		g.Rows = append(g.Rows, GroupRow{Kind: GroupUserSum, Index: j, RHS: 0.2 + rng.Float64()})
	}
	for i := 0; i < g.I; i++ {
		g.Rows = append(g.Rows, GroupRow{Kind: GroupCloudSumNeg, Index: i,
			RHS: -(float64(g.J)*0.6 + 2*rng.Float64())})
	}
	return g
}

// consFromRagged materializes the generic sparse-row reference of a
// ragged row set over the packed variable space.
func consFromRagged(g *Groups) []Constraint {
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

// TestRaggedLagrangianMatchesCons is the ragged-kernel property test: on
// random CSR layouts and random primal/dual points, the structured
// Lagrangian must agree with the sparse-row reference on the value, the
// gradient, and every row activity to 1e-10. Every fourth row set carries
// capacity rows only.
func TestRaggedLagrangianMatchesCons(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		g := randomRagged(rng)
		if trial%4 == 3 {
			capacityOnly(g)
		}
		n := g.RowPtr[g.I]
		if err := g.validate(n); err != nil {
			t.Fatal(err)
		}
		cons := consFromRagged(g)
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
		pd := &Problem{Obj: obj, N: n, Cons: cons}
		var wsg, wsd Workspace
		wsg.ensure(n, m)
		wsg.gs.ensure(g)
		wsd.ensure(n, m)

		pg.axInto(x, wsg.ax, &wsg.gs, 1)
		pd.axInto(x, wsd.ax, &wsd.gs, 1)
		for k := range wsg.ax {
			if d := math.Abs(wsg.ax[k] - wsd.ax[k]); d > 1e-10 {
				t.Fatalf("trial %d row %d (%+v): ax %g vs cons %g",
					trial, k, g.Rows[k], wsg.ax[k], wsd.ax[k])
			}
		}

		lg := &lagrangian{p: pg, y: y, rho: rho, ws: &wsg, workers: 1}
		ld := &lagrangian{p: pd, y: y, rho: rho, ws: &wsd, workers: 1}
		gradG := make([]float64, n)
		gradD := make([]float64, n)
		fg := lg.Eval(x, gradG)
		fd := ld.Eval(x, gradD)
		if d := math.Abs(fg-fd) / (1 + math.Abs(fd)); d > 1e-10 {
			t.Fatalf("trial %d: Lagrangian %g vs cons %g", trial, fg, fd)
		}
		for k := range gradG {
			if d := math.Abs(gradG[k] - gradD[k]); d > 1e-10*(1+math.Abs(gradD[k])) {
				t.Fatalf("trial %d: grad[%d] = %g vs cons %g", trial, k, gradG[k], gradD[k])
			}
		}
	}
}

// TestRaggedSolveMatchesCons runs the full loop on random ragged programs
// with both row representations and requires the converged primal points
// and duals to agree.
func TestRaggedSolveMatchesCons(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		g := randomRagged(rng)
		n := g.RowPtr[g.I]
		cons := consFromRagged(g)
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
		opts := Options{MaxOuter: 200}

		rg, err := Solve(&Problem{Obj: obj, N: n, Lower: lower, Groups: g}, opts)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := Solve(&Problem{Obj: obj, N: n, Lower: lower, Cons: cons}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !rg.Converged || !rd.Converged {
			t.Fatalf("trial %d: converged ragged=%v cons=%v", trial, rg.Converged, rd.Converged)
		}
		if d := math.Abs(rg.Objective-rd.Objective) / (1 + math.Abs(rd.Objective)); d > 1e-6 {
			t.Errorf("trial %d: objective %g vs cons %g", trial, rg.Objective, rd.Objective)
		}
		for k := range rg.X {
			if d := math.Abs(rg.X[k] - rd.X[k]); d > 1e-5 {
				t.Errorf("trial %d: x[%d] = %g vs cons %g", trial, k, rg.X[k], rd.X[k])
			}
		}
		for k := range rg.Duals {
			if d := math.Abs(rg.Duals[k] - rd.Duals[k]); d > 1e-4*(1+math.Abs(rd.Duals[k])) {
				t.Errorf("trial %d: dual[%d] = %g vs cons %g", trial, k, rg.Duals[k], rd.Duals[k])
			}
		}
	}
}

// TestRaggedParallelByteIdentical pins the determinism contract on the
// ragged kernels: with the gating grain forced down, Solve must produce
// bitwise-identical primal and dual vectors for any worker count.
func TestRaggedParallelByteIdentical(t *testing.T) {
	old := parGrain
	parGrain = 1
	defer func() { parGrain = old }()

	rng := rand.New(rand.NewSource(29))
	g := randomRagged(rng)
	n := g.RowPtr[g.I]
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

// sparseUsers thins a ragged layout the way an incremental slot does: only
// some users keep a demand row, a user without one may still own variables
// (Cols names it), a user with one may own none, and most of [0, J) appears
// nowhere. It returns the thinned layout over the same J and its compact
// twin, in which the users that appear anywhere are renumbered 0, 1, … in
// ascending order and J is their count — the form core hands the solver so
// that the per-evaluation user scratch is sized to the program.
func sparseUsers(rng *rand.Rand, g *Groups) (wide, compact *Groups) {
	keep := make([]bool, g.J)
	for j := range keep {
		keep[j] = rng.Intn(3) == 0
	}
	wide = &Groups{I: g.I, J: g.J, Blocks: 1, RowPtr: make([]int, g.I+1)}
	for i := 0; i < g.I; i++ {
		for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
			if keep[g.Cols[k]] {
				wide.Cols = append(wide.Cols, g.Cols[k])
			}
		}
		wide.RowPtr[i+1] = len(wide.Cols)
	}
	for _, r := range g.Rows {
		// Demand rows: most kept users', and a few users' who own nothing.
		if r.Kind == GroupUserSum && keep[r.Index] != (rng.Intn(5) == 0) {
			wide.Rows = append(wide.Rows, r)
		}
		if r.Kind == GroupCloudSumNeg {
			wide.Rows = append(wide.Rows, r)
		}
	}
	used := make([]bool, g.J)
	for _, j := range wide.Cols {
		used[j] = true
	}
	for _, r := range wide.Rows {
		if r.Kind == GroupUserSum {
			used[r.Index] = true
		}
	}
	pos, n := make([]int, g.J), 0
	for j, u := range used {
		if u {
			pos[j] = n
			n++
		}
	}
	compact = &Groups{I: g.I, J: max(n, 1), Blocks: 1, RowPtr: wide.RowPtr}
	for _, j := range wide.Cols {
		compact.Cols = append(compact.Cols, pos[j])
	}
	for _, r := range wide.Rows {
		if r.Kind == GroupUserSum {
			r.Index = pos[r.Index]
		}
		compact.Rows = append(compact.Rows, r)
	}
	return wide, compact
}

// TestRaggedSparseUsersAndStaleScratch evaluates thinned layouts — fewer
// variables than users, users in Cols without a demand row, demand rows
// without variables — on a workspace whose user scratch still holds the
// totals and multiplier sums of a larger, denser layout. Row activities and
// gradients must equal the sparse-row reference's, and the compact
// renumbering must change no bit of either: user totals accumulate in
// variable order whatever the users are called.
func TestRaggedSparseUsersAndStaleScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(2406))
	var ws Workspace
	for trial := 0; trial < 200; trial++ {
		// Dirty the scratch with a full layout at large values.
		big := randomRagged(rng)
		nBig := big.RowPtr[big.I]
		if err := big.validate(nBig); err != nil {
			t.Fatal(err)
		}
		ws.ensure(nBig, len(big.Rows))
		ws.gs.ensure(big)
		xBig, yBig := make([]float64, nBig), make([]float64, len(big.Rows))
		for k := range xBig {
			xBig[k] = 1e6 * (1 + rng.Float64())
		}
		for k := range yBig {
			yBig[k] = 1e6 * (1 + rng.Float64())
		}
		big.axInto(xBig, ws.ax, &ws.gs, 1)
		big.addGrad(yBig, make([]float64, nBig), &ws.gs, 1)

		wide, compact := sparseUsers(rng, randomRagged(rng))
		n := wide.RowPtr[wide.I]
		if n == 0 {
			continue
		}
		x, mult := make([]float64, n), make([]float64, len(wide.Rows))
		for k := range x {
			x[k] = 3 * rng.Float64()
		}
		for k := range mult {
			mult[k] = 2 * rng.Float64() * float64(rng.Intn(2))
		}
		eval := func(g *Groups) (ax, grad []float64) {
			if err := g.validate(n); err != nil {
				t.Fatal(err)
			}
			ws.ensure(n, len(g.Rows))
			ws.gs.ensure(g)
			g.axInto(x, ws.ax, &ws.gs, 1)
			grad = make([]float64, n)
			g.addGrad(mult, grad, &ws.gs, 1)
			return append([]float64(nil), ws.ax...), grad
		}
		axW, gradW := eval(wide)
		axC, gradC := eval(compact)
		for k, c := range consFromRagged(wide) {
			want := 0.0
			for p, idx := range c.Idx {
				want += c.Coeffs[p] * x[idx]
			}
			if math.Abs(axW[k]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("trial %d row %d (%+v): activity %g, sparse-row reference %g", trial, k, wide.Rows[k], axW[k], want)
			}
			for _, idx := range c.Idx {
				gradW[idx] += mult[k] * c.Coeffs[0] // undo the row's share
			}
		}
		for k, v := range gradW {
			if math.Abs(v) > 1e-12 {
				t.Fatalf("trial %d: grad[%d] differs from the sparse-row reference by %g", trial, k, v)
			}
		}
		_, gradW = eval(wide)
		for k := range axW {
			if math.Float64bits(axW[k]) != math.Float64bits(axC[k]) {
				t.Fatalf("trial %d row %d: activity %v wide, %v compact", trial, k, axW[k], axC[k])
			}
		}
		for k := range gradW {
			if math.Float64bits(gradW[k]) != math.Float64bits(gradC[k]) {
				t.Fatalf("trial %d: grad[%d] = %v wide, %v compact", trial, k, gradW[k], gradC[k])
			}
		}
	}
}

// TestRaggedValidateRejectsBadLayouts exercises the CSR geometry checks.
func TestRaggedValidateRejectsBadLayouts(t *testing.T) {
	base := func() *Groups {
		return &Groups{I: 2, J: 3, Blocks: 1,
			RowPtr: []int{0, 2, 4}, Cols: []int{0, 1, 1, 2},
			Rows: []GroupRow{{Kind: GroupUserSum, Index: 0, RHS: 1}}}
	}
	if err := base().validate(4); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Groups)
		n    int
	}{
		{"blocks", func(g *Groups) { g.Blocks = 2 }, 4},
		{"rowptr-len", func(g *Groups) { g.RowPtr = []int{0, 4} }, 4},
		{"rowptr-first", func(g *Groups) { g.RowPtr[0] = 1 }, 4},
		{"rowptr-decreasing", func(g *Groups) { g.RowPtr[1] = 3; g.RowPtr[2] = 2 }, 4},
		{"n-mismatch", func(g *Groups) {}, 5},
		{"cols-range", func(g *Groups) { g.Cols[3] = 3 }, 4},
	}
	for _, tc := range cases {
		g := base()
		tc.mut(g)
		if err := g.validate(tc.n); !errors.Is(err, ErrBadProblem) {
			t.Errorf("%s: validate = %v, want ErrBadProblem", tc.name, err)
		}
	}
}
