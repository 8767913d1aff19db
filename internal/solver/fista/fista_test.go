package fista

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quadratic returns f(x) = 0.5 x'Qx - b'x for a diagonal Q.
func quadratic(q, b []float64) Func {
	return func(x, grad []float64) float64 {
		f := 0.0
		for j := range x {
			f += 0.5*q[j]*x[j]*x[j] - b[j]*x[j]
			if grad != nil {
				grad[j] = q[j]*x[j] - b[j]
			}
		}
		return f
	}
}

func TestMinimizeUnconstrainedQuadratic(t *testing.T) {
	// An interior minimizer, (1, 1/2, 1/3): the bound x ≥ 0 never binds.
	q := []float64{1, 4, 9}
	b := []float64{1, 2, 3}
	res, err := Minimize(quadratic(q, b), []float64{10, -10, 5}, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for j := range q {
		want := b[j] / q[j]
		if math.Abs(res.X[j]-want) > 1e-5 {
			t.Errorf("x[%d] = %g, want %g", j, res.X[j], want)
		}
	}
	if !res.Converged {
		t.Error("did not report convergence")
	}
}

func TestMinimizeNonnegativeOrthant(t *testing.T) {
	// min (x+3)^2 + (y-1)^2 over x,y >= 0: optimum (0, 1).
	obj := Func(func(x, grad []float64) float64 {
		if grad != nil {
			grad[0] = 2 * (x[0] + 3)
			grad[1] = 2 * (x[1] - 1)
		}
		return (x[0]+3)*(x[0]+3) + (x[1]-1)*(x[1]-1)
	})
	res, err := Minimize(obj, []float64{4, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]) > 1e-7 || math.Abs(res.X[1]-1) > 1e-7 {
		t.Errorf("x = %v, want (0, 1)", res.X)
	}
}

func TestMinimizeEntropyTerm(t *testing.T) {
	// The P2 regularizer shape: min a*x + (x+e)ln((x+e)/(p+e)) - x over x>=0.
	// Stationarity: a + ln((x+e)/(p+e)) = 0 => x = (p+e)exp(-a) - e.
	const a, e, p = 0.3, 0.5, 2.0
	obj := Func(func(x, grad []float64) float64 {
		v := x[0] + e
		if grad != nil {
			grad[0] = a + math.Log(v/(p+e))
		}
		return a*x[0] + v*math.Log(v/(p+e)) - x[0]
	})
	res, err := Minimize(obj, []float64{p}, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	want := (p+e)*math.Exp(-a) - e
	if math.Abs(res.X[0]-want) > 1e-6 {
		t.Errorf("x = %g, want %g", res.X[0], want)
	}
}

func TestMinimizeStartOutsideBox(t *testing.T) {
	// A start below zero is projected onto x ≥ 0 before the first step; the
	// unconstrained minimizer −1 clips to the optimum 0.
	obj := quadratic([]float64{2}, []float64{-2})
	res, err := Minimize(obj, []float64{-7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] != 0 {
		t.Errorf("x = %g, want clipped optimum 0", res.X[0])
	}
}

func TestMinimizeRandomQuadraticProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		q := make([]float64, n)
		b := make([]float64, n)
		x0 := make([]float64, n)
		for j := range q {
			q[j] = 0.1 + 3*rng.Float64()
			b[j] = rng.NormFloat64()
			x0[j] = 5 * rng.Float64()
		}
		res, err := Minimize(quadratic(q, b), x0, Options{Tol: 1e-11, MaxIters: 5000})
		if err != nil {
			return false
		}
		// Optimum of the diagonal quadratic over x ≥ 0 is max(0, b/q).
		for j := range q {
			want := b[j] / q[j]
			if want < 0 {
				want = 0
			}
			if math.Abs(res.X[j]-want) > 1e-4*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizeIllConditioned(t *testing.T) {
	// Condition number 1e4 quadratic still converges to modest accuracy.
	q := []float64{1e-2, 1e2}
	b := []float64{1, 1}
	res, err := Minimize(quadratic(q, b), []float64{0, 0}, Options{MaxIters: 20000, Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-100) > 1e-2 || math.Abs(res.X[1]-0.01) > 1e-6 {
		t.Errorf("x = %v, want (100, 0.01)", res.X)
	}
}
