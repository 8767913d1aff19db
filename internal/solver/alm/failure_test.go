package alm

import (
	"errors"
	"math"
	"testing"
)

// TestSolveInfeasibleReportsViolation injects contradictory constraints:
// the solver must not report convergence and must surface the residual
// violation instead of silently returning a bogus "solution".
func TestSolveInfeasibleReportsViolation(t *testing.T) {
	// x <= 1 (capacity, as -x >= -1) and x >= 3 (demand) cannot both hold.
	g := noRows()
	g.Rows = []GroupRow{{Kind: GroupCloudSumNeg, Index: 0, RHS: -1}, {Kind: GroupUserSum, Index: 0, RHS: 3}}
	p := &Problem{Obj: linear([]float64{1}), N: 1, Groups: g}
	res, err := Solve(p, Options{MaxOuter: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("reported convergence on an infeasible problem")
	}
	if res.MaxViolation < 0.1 {
		t.Errorf("MaxViolation = %g, want a substantial residual", res.MaxViolation)
	}
}

// TestSolveTightEqualityViaOpposedRows encodes x0 + x1 == 2 as opposing
// inequalities — one cloud of capacity 2 serving two users of demand 1
// each, the ΣC = Σλ corner of P2, where the demand rows sum to the
// capacity row — and checks the multipliers settle.
func TestSolveTightEqualityViaOpposedRows(t *testing.T) {
	g := gridGroups(1, 1, 2, nil)
	g.Rows = []GroupRow{
		{Kind: GroupUserSum, Index: 0, RHS: 1},
		{Kind: GroupUserSum, Index: 1, RHS: 1},
		{Kind: GroupCloudSumNeg, Index: 0, RHS: -2},
	}
	p := &Problem{Obj: linear([]float64{3, 1}), N: 2, Groups: g}
	res, err := Solve(p, Options{MaxOuter: 150})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: violation %g", res.MaxViolation)
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]-1) > 1e-4 {
		t.Errorf("x = %v, want (1, 1)", res.X)
	}
	if math.Abs(res.Objective-4) > 1e-4 {
		t.Errorf("objective = %g, want 4", res.Objective)
	}
}

// TestSolveHugeScaleDifference mixes rows whose right-hand sides differ by
// four orders of magnitude, as a light user's demand (λ≈1) and a heavy
// aggregate's (≈10³) do at full scale.
func TestSolveHugeScaleDifference(t *testing.T) {
	g := gridGroups(1, 1, 2, nil)
	g.Rows = []GroupRow{{Kind: GroupUserSum, Index: 0, RHS: 0.5}, {Kind: GroupUserSum, Index: 1, RHS: 5000}}
	p := &Problem{Obj: linear([]float64{1, 1}), N: 2, Groups: g}
	res, err := Solve(p, Options{MaxOuter: 150})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: violation %g", res.MaxViolation)
	}
	if math.Abs(res.X[0]-0.5) > 1e-3 || math.Abs(res.X[1]-5000) > 0.5 {
		t.Errorf("x = %v, want (0.5, 5000)", res.X)
	}
}

// TestSolveZeroObjective exercises the pure-feasibility case.
func TestSolveZeroObjective(t *testing.T) {
	p := &Problem{Obj: linear([]float64{0, 0}), N: 2, Groups: column(2, 1)}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0]+res.X[1] < 1-1e-6 {
		t.Errorf("constraint unmet: %v", res.X)
	}
}

// TestSolveRejectsBadOptions: a zero budget or tolerance takes Solve's
// default, and a negative or NaN one is refused as ErrBadProblem instead
// of silently taking it.
func TestSolveRejectsBadOptions(t *testing.T) {
	p := &Problem{Obj: linear([]float64{3, 1}), N: 2, Groups: column(2, 2)}
	for _, tc := range []struct {
		name string
		opts Options
		bad  bool
	}{
		{"defaults", Options{}, false},
		{"negative MaxOuter", Options{MaxOuter: -1}, true},
		{"negative InnerIters", Options{InnerIters: -1}, true},
		{"negative Penalty", Options{Penalty: -1}, true},
		{"NaN Penalty", Options{Penalty: math.NaN()}, true},
		{"negative FeasTol", Options{FeasTol: -1e-7}, true},
		{"negative ObjTol", Options{ObjTol: -1e-9}, true},
		{"NaN DualTol", Options{DualTol: math.NaN()}, true},
		{"negative DualTol", Options{DualTol: -1e-6}, true},
	} {
		_, err := Solve(p, tc.opts)
		if got := errors.Is(err, ErrBadProblem); got != tc.bad {
			t.Errorf("%s: Solve = %v, want ErrBadProblem %v", tc.name, err, tc.bad)
		}
	}
}
