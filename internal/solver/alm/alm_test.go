package alm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"edgealloc/internal/solver/fista"
	"edgealloc/internal/solver/simplex"
)

// linear builds a linear objective c·x.
func linear(c []float64) fista.Func {
	return func(x, grad []float64) float64 {
		f := 0.0
		for j := range x {
			f += c[j] * x[j]
			if grad != nil {
				grad[j] = c[j]
			}
		}
		return f
	}
}

func denseRow(coeffs []float64, rhs float64) Constraint {
	idx := make([]int, len(coeffs))
	for j := range idx {
		idx[j] = j
	}
	return Constraint{Idx: idx, Coeffs: coeffs, RHS: rhs}
}

func TestSolveSimpleLP(t *testing.T) {
	// min 2x + y s.t. x + y >= 3, x,y >= 0 → (0,3), objective 3.
	p := &Problem{
		Obj:   linear([]float64{2, 1}),
		N:     2,
		Cons:  []Constraint{denseRow([]float64{1, 1}, 3)},
		Lower: []float64{0, 0},
	}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("not converged, violation %g", res.MaxViolation)
	}
	if math.Abs(res.Objective-3) > 1e-5 {
		t.Errorf("objective = %g, want 3", res.Objective)
	}
	if math.Abs(res.X[0]) > 1e-4 || math.Abs(res.X[1]-3) > 1e-4 {
		t.Errorf("x = %v, want (0,3)", res.X)
	}
	// Dual of the single row is min(c) = 1 by LP duality.
	if math.Abs(res.Duals[0]-1) > 1e-4 {
		t.Errorf("dual = %g, want 1", res.Duals[0])
	}
}

func TestSolveProjectionQP(t *testing.T) {
	// min Σ (x_j - d_j)^2 s.t. Σ x_j >= b, x >= 0.
	// With d=(1,2) and b=5: ν solves Σ max(0, d_j + ν/2) = 5 → ν = 2,
	// x = (2,3).
	d := []float64{1, 2}
	obj := fista.Func(func(x, grad []float64) float64 {
		f := 0.0
		for j := range x {
			f += (x[j] - d[j]) * (x[j] - d[j])
			if grad != nil {
				grad[j] = 2 * (x[j] - d[j])
			}
		}
		return f
	})
	p := &Problem{
		Obj:   obj,
		N:     2,
		Cons:  []Constraint{denseRow([]float64{1, 1}, 5)},
		Lower: []float64{0, 0},
	}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-5 || math.Abs(res.X[1]-3) > 1e-5 {
		t.Errorf("x = %v, want (2,3)", res.X)
	}
	if math.Abs(res.Duals[0]-2) > 1e-4 {
		t.Errorf("dual = %g, want ν = 2", res.Duals[0])
	}
}

func TestSolveNoConstraints(t *testing.T) {
	obj := fista.Func(func(x, grad []float64) float64 {
		if grad != nil {
			grad[0] = 2*x[0] - 4
		}
		return x[0]*x[0] - 4*x[0]
	})
	res, err := Solve(&Problem{Obj: obj, N: 1, Lower: []float64{0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-6 {
		t.Errorf("x = %g, want 2", res.X[0])
	}
}

func TestSolveWarmStartConsistency(t *testing.T) {
	p := &Problem{
		Obj:   linear([]float64{1, 3}),
		N:     2,
		Cons:  []Constraint{denseRow([]float64{1, 1}, 2)},
		Lower: []float64{0, 0},
	}
	cold, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(p, Options{WarmX: cold.X, WarmDuals: cold.Duals})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
		t.Errorf("warm objective %g != cold %g", warm.Objective, cold.Objective)
	}
	if warm.InnerIters > cold.InnerIters {
		t.Logf("warm start used more inner iterations (%d > %d) — acceptable but unusual",
			warm.InnerIters, cold.InnerIters)
	}
}

func TestSolveInputValidation(t *testing.T) {
	obj := linear([]float64{1})
	tests := []struct {
		name string
		p    *Problem
		opts Options
	}{
		{"zero N", &Problem{Obj: obj, N: 0}, Options{}},
		{"bad index", &Problem{Obj: obj, N: 1,
			Cons: []Constraint{{Idx: []int{5}, Coeffs: []float64{1}, RHS: 0}}}, Options{}},
		{"len mismatch", &Problem{Obj: obj, N: 1,
			Cons: []Constraint{{Idx: []int{0}, Coeffs: []float64{1, 2}, RHS: 0}}}, Options{}},
		{"bad warm x", &Problem{Obj: obj, N: 1}, Options{WarmX: []float64{1, 2}}},
		{"bad warm duals", &Problem{Obj: obj, N: 1,
			Cons: []Constraint{{Idx: []int{0}, Coeffs: []float64{1}, RHS: 0}}},
			Options{WarmDuals: []float64{1, 2}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Solve(tt.p, tt.opts); err == nil {
				t.Error("Solve accepted malformed input")
			}
		})
	}
}

// TestSolveAgreesWithSimplex cross-checks the first-order solver against the
// exact simplex LP solver on random feasible bounded LPs with GE rows.
func TestSolveAgreesWithSimplex(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(3))}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(4)
		c := make([]float64, n)
		for j := range c {
			c[j] = 0.05 + rng.Float64()
		}
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = 3 * rng.Float64()
		}
		lp := &simplex.Problem{C: c}
		ap := &Problem{Obj: linear(c), N: n, Lower: make([]float64, n)}
		for k := 0; k < m; k++ {
			row := make([]float64, n)
			lhs := 0.0
			for j := range row {
				row[j] = rng.Float64() // nonnegative rows keep the LP bounded+feasible
				lhs += row[j] * x0[j]
			}
			rhs := lhs * (0.5 + 0.5*rng.Float64())
			lp.Cons = append(lp.Cons, simplex.Constraint{Coeffs: row, Sense: simplex.GE, RHS: rhs})
			ap.Cons = append(ap.Cons, denseRow(row, rhs))
		}
		exact, err := simplex.Solve(lp)
		if err != nil || exact.Status != simplex.Optimal {
			return false
		}
		res, err := Solve(ap, Options{MaxOuter: 120})
		if err != nil {
			return false
		}
		if res.MaxViolation > 1e-5 {
			return false
		}
		return math.Abs(res.Objective-exact.Objective) <= 2e-4*(1+math.Abs(exact.Objective))
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSolveDualObjectiveMatches checks strong duality y·b == c·x on a
// nondegenerate LP, validating that Duals really are the LP duals.
func TestSolveDualObjectiveMatches(t *testing.T) {
	// min x + 2y s.t. x + y >= 4, x + 3y >= 6, x,y >= 0.
	p := &Problem{
		Obj: linear([]float64{1, 2}),
		N:   2,
		Cons: []Constraint{
			denseRow([]float64{1, 1}, 4),
			denseRow([]float64{1, 3}, 6),
		},
		Lower: []float64{0, 0},
	}
	res, err := Solve(p, Options{MaxOuter: 150})
	if err != nil {
		t.Fatal(err)
	}
	dualObj := 4*res.Duals[0] + 6*res.Duals[1]
	if math.Abs(dualObj-res.Objective) > 1e-4*(1+math.Abs(res.Objective)) {
		t.Errorf("dual objective %g != primal %g (duals %v)", dualObj, res.Objective, res.Duals)
	}
}

// TestSlackRowMultiplierGrowsPenalty pins the σ-stall penalty rule on the
// case the violation-only rule never saw: a primal-feasible start whose
// warm multiplier sits on a row that is slack at the optimum. Each update
// sheds only ρ·slack of it, so at a fixed small ρ the multiplier outlives
// any outer budget; σ = min(slack, y/ρ) stalls, the penalty grows, and
// the solve ends converged with the multiplier at zero.
func TestSlackRowMultiplierGrowsPenalty(t *testing.T) {
	// min (x−1)² s.t. x ≥ 0.5: optimum x = 1, slack 0.5, dual 0.
	obj := fista.Func(func(x, grad []float64) float64 {
		if grad != nil {
			grad[0] = 2 * (x[0] - 1)
		}
		return (x[0] - 1) * (x[0] - 1)
	})
	p := &Problem{Obj: obj, N: 1, Cons: []Constraint{denseRow([]float64{1}, 0.5)}, Lower: []float64{0}}
	res, err := Solve(p, Options{
		Penalty: 1e-3, MaxOuter: 40,
		WarmX: []float64{1}, WarmDuals: []float64{5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Stop != StopConverged {
		t.Fatalf("stop %q after %d outer (σ %g, Δobj %g, Δy %g), want converged",
			res.Stop, res.Outer, res.Sigma, res.RelObjChange, res.DualMove)
	}
	if res.Duals[0] != 0 || math.Abs(res.X[0]-1) > 1e-6 {
		t.Errorf("x = %g, dual = %g, want 1 and 0", res.X[0], res.Duals[0])
	}
	if res.Sigma > 1e-7 {
		t.Errorf("σ = %g at a converged stop, want ≤ FeasTol", res.Sigma)
	}
}

// TestStopReasonAtCap checks the classification of a solve cut off at
// MaxOuter: the first failing test of feasibility, objective, dual.
func TestStopReasonAtCap(t *testing.T) {
	p := &Problem{
		Obj:   linear([]float64{2, 1}),
		N:     2,
		Cons:  []Constraint{denseRow([]float64{1, 1}, 3)},
		Lower: []float64{0, 0},
	}
	res, err := Solve(p, Options{MaxOuter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Stop != StopFeasibility {
		t.Errorf("one outer iteration from zero: stop %q converged %v, want feasibility", res.Stop, res.Converged)
	}
	if res.Sigma < res.MaxViolation || res.Sigma == 0 {
		t.Errorf("σ = %g below the violation %g", res.Sigma, res.MaxViolation)
	}
	// A row that never binds: the first outer iteration is feasible, and
	// with no earlier objective to compare against the objective test is
	// the one failing.
	p.Cons[0].RHS = -1
	res, err = Solve(p, Options{MaxOuter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Stop != StopObjective {
		t.Errorf("slack row, one outer iteration: stop %q converged %v, want objective", res.Stop, res.Converged)
	}
	// Feasible with the objective settled (to a loose ObjTol) while a slack
	// row still sheds its warm multiplier: the dual test is the one failing.
	q := &Problem{
		Obj: fista.Func(func(x, grad []float64) float64 {
			if grad != nil {
				grad[0] = 2 * (x[0] - 1)
			}
			return (x[0] - 1) * (x[0] - 1)
		}),
		N: 1, Cons: []Constraint{denseRow([]float64{1}, 0.5)}, Lower: []float64{0},
	}
	res, err = Solve(q, Options{Penalty: 1e-3, MaxOuter: 2, ObjTol: 1e-2,
		WarmX: []float64{1}, WarmDuals: []float64{5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Stop != StopDual || res.DualMove <= 1e-6 {
		t.Errorf("multiplier on a slack row: stop %q converged %v Δy %g, want dual", res.Stop, res.Converged, res.DualMove)
	}
	// No rows at all: the inner solver's own verdict.
	res, err = Solve(&Problem{Obj: q.Obj, N: 1, Lower: []float64{0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Stop != StopConverged {
		t.Errorf("unconstrained: stop %q converged %v, want converged", res.Stop, res.Converged)
	}
	for stop, want := range map[Stop]string{StopNone: "", StopConverged: "converged",
		StopFeasibility: "feasibility", StopObjective: "objective", StopDual: "dual"} {
		if got := stop.String(); got != want {
			t.Errorf("Stop(%d).String() = %q, want %q", stop, got, want)
		}
		// The names are the persisted form: text round-trips by name.
		var back Stop
		if text, _ := stop.MarshalText(); string(text) != want || back.UnmarshalText(text) != nil || back != stop {
			t.Errorf("Stop(%d) text round trip: %q -> %d", stop, text, back)
		}
	}
	if err := new(Stop).UnmarshalText([]byte("stalled")); err == nil {
		t.Error("unknown stop name decoded")
	}
}
