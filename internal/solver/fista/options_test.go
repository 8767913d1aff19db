package fista

import (
	"math"
	"testing"
)

func TestFuncAdapterSatisfiesInterface(t *testing.T) {
	var obj Objective = Func(func(x, grad []float64) float64 {
		if grad != nil {
			grad[0] = 1
		}
		return x[0]
	})
	g := make([]float64, 1)
	if f := obj.Eval([]float64{3}, g); f != 3 || g[0] != 1 {
		t.Errorf("adapter eval = %g, grad = %g", f, g[0])
	}
}

func TestMinimizeHealsLargeStep(t *testing.T) {
	// On a quadratic of curvature 2e6 the first step tried, 1, is a million
	// times the stable one: backtracking must heal it.
	obj := quadratic([]float64{2e6}, []float64{2e6})
	res, err := Minimize(obj, []float64{0}, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-5 {
		t.Errorf("x = %g, want 1", res.X[0])
	}
}

func TestMinimizeDoesNotMutateX0(t *testing.T) {
	obj := quadratic([]float64{1, 1}, []float64{0, 0})
	x0 := []float64{3, -4}
	want := append([]float64(nil), x0...)
	if _, err := Minimize(obj, x0, Options{}); err != nil {
		t.Fatal(err)
	}
	for k := range x0 {
		if x0[k] != want[k] {
			t.Fatalf("x0 mutated: %v", x0)
		}
	}
}

func TestMinimizeZeroIterationBudgetDefaulted(t *testing.T) {
	obj := quadratic([]float64{2}, []float64{2})
	res, err := Minimize(obj, []float64{0}, Options{MaxIters: -1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-5 {
		t.Errorf("x = %g, want 1 (defaults should kick in)", res.X[0])
	}
}
