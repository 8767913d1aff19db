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
	// x <= 1 (as -x >= -1) and x >= 3 cannot both hold.
	p := &Problem{
		Obj: linear([]float64{1}),
		N:   1,
		Cons: []Constraint{
			{Idx: []int{0}, Coeffs: []float64{-1}, RHS: -1},
			{Idx: []int{0}, Coeffs: []float64{1}, RHS: 3},
		},
	}
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

// TestSolveTightEqualityViaOpposedRows encodes x0 + x1 == 2 as a pair of
// opposing inequalities — the pattern the offline program uses for its
// hinge linearizations — and checks both multipliers settle.
func TestSolveTightEqualityViaOpposedRows(t *testing.T) {
	p := &Problem{
		Obj: linear([]float64{3, 1}),
		N:   2,
		Cons: []Constraint{
			{Idx: []int{0, 1}, Coeffs: []float64{1, 1}, RHS: 2},
			{Idx: []int{0, 1}, Coeffs: []float64{-1, -1}, RHS: -2},
		},
	}
	res, err := Solve(p, Options{MaxOuter: 150})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: violation %g", res.MaxViolation)
	}
	if math.Abs(res.X[0]) > 1e-4 || math.Abs(res.X[1]-2) > 1e-4 {
		t.Errorf("x = %v, want (0, 2)", res.X)
	}
	if math.Abs(res.Objective-2) > 1e-4 {
		t.Errorf("objective = %g, want 2", res.Objective)
	}
}

// TestSolveHugeScaleDifference mixes rows whose right-hand sides differ by
// four orders of magnitude, as the demand (λ≈1) and complement-capacity
// (Λ−C≈10³) rows of P2 do at full scale.
func TestSolveHugeScaleDifference(t *testing.T) {
	p := &Problem{
		Obj: linear([]float64{1, 1}),
		N:   2,
		Cons: []Constraint{
			{Idx: []int{0}, Coeffs: []float64{1}, RHS: 0.5},
			{Idx: []int{1}, Coeffs: []float64{1}, RHS: 5000},
		},
	}
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
	p := &Problem{
		Obj:  linear([]float64{0, 0}),
		N:    2,
		Cons: []Constraint{{Idx: []int{0, 1}, Coeffs: []float64{1, 1}, RHS: 1}},
	}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0]+res.X[1] < 1-1e-6 {
		t.Errorf("constraint unmet: %v", res.X)
	}
}

// TestSolveRejectsBadOptions: a zero budget or tolerance takes Solve's
// default, and a negative or NaN one, or a nonzero PenaltyGrowth not above
// 1, is refused as ErrBadProblem instead of silently taking it.
func TestSolveRejectsBadOptions(t *testing.T) {
	p := &Problem{
		Obj:  linear([]float64{3, 1}),
		N:    2,
		Cons: []Constraint{{Idx: []int{0, 1}, Coeffs: []float64{1, 1}, RHS: 2}},
	}
	for _, tc := range []struct {
		name string
		opts Options
		bad  bool
	}{
		{"defaults", Options{}, false},
		{"growth above 1", Options{PenaltyGrowth: 1.5}, false},
		{"negative MaxOuter", Options{MaxOuter: -1}, true},
		{"negative InnerIters", Options{InnerIters: -1}, true},
		{"negative Penalty", Options{Penalty: -1}, true},
		{"NaN Penalty", Options{Penalty: math.NaN()}, true},
		{"negative FeasTol", Options{FeasTol: -1e-7}, true},
		{"negative ObjTol", Options{ObjTol: -1e-9}, true},
		{"NaN DualTol", Options{DualTol: math.NaN()}, true},
		{"negative DualTol", Options{DualTol: -1e-6}, true},
		{"growth 1", Options{PenaltyGrowth: 1}, true},
		{"growth below 1", Options{PenaltyGrowth: 0.5}, true},
		{"negative growth", Options{PenaltyGrowth: -4}, true},
	} {
		_, err := Solve(p, tc.opts)
		if got := errors.Is(err, ErrBadProblem); got != tc.bad {
			t.Errorf("%s: Solve = %v, want ErrBadProblem %v", tc.name, err, tc.bad)
		}
	}
}
