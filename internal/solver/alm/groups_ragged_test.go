package alm

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/solver/fista"
)

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
	wide = &Groups{I: g.I, J: g.J, RowPtr: make([]int, g.I+1)}
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
	compact = &Groups{I: g.I, J: max(n, 1), RowPtr: wide.RowPtr}
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
		big := randomGrid(rng, true)
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
		big.axInto(xBig, ws.ax, &ws.gs)
		gBig := make([]float64, nBig)
		big.addGrad(yBig, gBig, gBig, &ws.gs)

		wide, compact := sparseUsers(rng, randomGrid(rng, true))
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
			g.axInto(x, ws.ax, &ws.gs)
			grad = make([]float64, n)
			g.addGrad(mult, grad, grad, &ws.gs)
			return append([]float64(nil), ws.ax...), grad
		}
		axW, gradW := eval(wide)
		axC, gradC := eval(compact)
		for k, c := range denseRowsOf(wide) {
			want := c.activity(x)
			if math.Abs(axW[k]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("trial %d row %d (%+v): activity %g, sparse-row reference %g", trial, k, wide.Rows[k], axW[k], want)
			}
			for _, idx := range c.idx {
				gradW[idx] += mult[k] * c.coef[0] // undo the row's share
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

// TestSolveRejectsMalformedGroups feeds Solve a small valid program on
// either inner solver with one thing broken — the CSR geometry, a row, or
// the rows missing altogether — and requires ErrBadProblem, never a panic: validation
// indexes no slice it has not length-checked.
func TestSolveRejectsMalformedGroups(t *testing.T) {
	base := func() *Problem {
		g := &Groups{I: 2, J: 3, RowPtr: []int{0, 2, 4}, Cols: []int{0, 1, 1, 2},
			Rows: []GroupRow{{Kind: GroupUserSum, Index: 1, RHS: 1}, {Kind: GroupCloudSumNeg, Index: 0, RHS: -2}}}
		o := &entropic{g: g, c: []float64{1, 2, 3, 4}, mg: []float64{1, 1, 1, 1}, p: make([]float64, 4),
			rc: []float64{1, 1}, prevTot: make([]float64, 2)}
		return &Problem{Obj: o, N: 4, Groups: g}
	}
	hide := func(p *Problem) { p.Obj = fista.Func(p.Obj.Eval) }
	for _, newton := range []bool{true, false} {
		p := base()
		if !newton {
			hide(p)
		}
		if res, err := Solve(p, Options{MaxOuter: 2}); err != nil || res.Newton != newton {
			t.Fatalf("valid program: err %v, Newton %v", err, res != nil && res.Newton)
		}
	}
	for _, tc := range []struct {
		name string
		mut  func(p *Problem)
	}{
		{"shape", func(p *Problem) { p.Groups.J = 0 }},
		{"rowptr-nil", func(p *Problem) { p.Groups.RowPtr = nil }},
		{"rowptr-empty", func(p *Problem) { p.Groups.RowPtr = []int{} }},
		{"rowptr-len", func(p *Problem) { p.Groups.RowPtr = []int{0, 4} }},
		{"rowptr-first", func(p *Problem) { p.Groups.RowPtr[0] = 1 }},
		{"rowptr-decreasing", func(p *Problem) { p.Groups.RowPtr[1] = 3; p.Groups.RowPtr[2] = 2 }},
		{"n-mismatch", func(p *Problem) { p.Groups.Cols = append(p.Groups.Cols, 0) }},
		{"cols-range", func(p *Problem) { p.Groups.Cols[3] = 3 }},
		{"row-user", func(p *Problem) { p.Groups.Rows[0].Index = 3 }},
		{"row-cloud", func(p *Problem) { p.Groups.Rows[1].Index = 2 }},
		{"row-kind", func(p *Problem) { p.Groups.Rows[0].Kind = 7 }},
		{"nil-groups", func(p *Problem) { p.Groups = nil }},
	} {
		p := base()
		tc.mut(p)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Solve panicked: %v", tc.name, r)
				}
			}()
			if _, err := Solve(p, Options{MaxOuter: 2}); !errors.Is(err, ErrBadProblem) {
				t.Errorf("%s: Solve = %v, want ErrBadProblem", tc.name, err)
			}
		}()
	}
}
