package core

import (
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
)

// TestP2ObjectiveGradient checks the analytic gradient of the P2
// objective against central finite differences at random interior points.
func TestP2ObjectiveGradient(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 4, Horizon: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	prev := model.NewAlloc(in.I, in.J)
	for k := range prev.X {
		prev.X[k] = rng.Float64()
	}
	obj := newP2Objective(in, 1, prev, 0.7, 1.3)

	n := in.I * in.J
	x := make([]float64, n)
	for k := range x {
		x[k] = 0.05 + rng.Float64()
	}
	grad := make([]float64, n)
	obj.Eval(x, grad)

	const h = 1e-6
	for trial := 0; trial < 25; trial++ {
		k := rng.Intn(n)
		orig := x[k]
		x[k] = orig + h
		fp := obj.Eval(x, nil)
		x[k] = orig - h
		fm := obj.Eval(x, nil)
		x[k] = orig
		fd := (fp - fm) / (2 * h)
		if math.Abs(fd-grad[k]) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("grad[%d] = %g, finite difference %g", k, grad[k], fd)
		}
	}
}

// TestP2ObjectiveMinimumAtPrevWithoutStaticCost verifies that with zero
// static coefficients the regularizers alone are minimized exactly at the
// previous allocation (the no-change point).
func TestP2ObjectiveMinimumAtPrevWithoutStaticCost(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 3, Horizon: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	prev := model.NewAlloc(in.I, in.J)
	rng := rand.New(rand.NewSource(24))
	for k := range prev.X {
		prev.X[k] = 0.2 + rng.Float64()
	}
	obj := newP2Objective(in, 0, prev, 1, 1)
	for k := range obj.coef {
		obj.coef[k] = 0
	}
	fPrev := obj.Eval(prev.X, nil)
	for trial := 0; trial < 50; trial++ {
		x := append([]float64(nil), prev.X...)
		for k := range x {
			x[k] = math.Max(0, x[k]+0.3*rng.NormFloat64())
		}
		if f := obj.Eval(x, nil); f < fPrev-1e-10 {
			t.Fatalf("objective %g below value at prev %g — regularizer not centered", f, fPrev)
		}
	}
}

// TestRepairTopsUpDeficits exercises both repair branches.
func TestRepairTopsUpDeficits(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 3, Horizon: 2, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	x := model.NewAlloc(in.I, in.J)
	// User 0: slightly under-served; user 1: all zeros; user 2: negative
	// round-off plus full service.
	x.Set(0, 0, in.Workload[0]*0.999)
	x.Set(0, 2, in.Workload[2])
	x.Set(1, 2, -1e-9)
	in.Repair(x, make([]float64, in.J))
	served := x.UserTotals()
	for j := 0; j < in.J; j++ {
		if served[j] < in.Workload[j]-1e-9 {
			t.Errorf("user %d still under-served: %g < %g", j, served[j], in.Workload[j])
		}
	}
	for k, v := range x.X {
		if v < 0 {
			t.Errorf("x[%d] = %g negative after repair", k, v)
		}
	}
}
