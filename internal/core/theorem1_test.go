package core

import (
	"testing"

	"edgealloc/internal/model"
)

// theorem1GapInstance separates the literal and the capacity-constrained
// P2 optima: cloud 0 is small and local to the heavy user 1, cloud 1 is
// roomy, local to the light user 0, and far away. The complement row
// forces Λ − C_0 = 2 units onto cloud 1 but not onto any particular user,
// so the literal optimum parks them on user 0 (over-serving it at its own
// cloud) and serves user 1's whole demand of 3 at cloud 0, whose capacity
// is 2; respecting it ships a unit of user 1 across the long link.
func theorem1GapInstance() *model.Instance {
	return &model.Instance{
		I:           2,
		J:           2,
		T:           1,
		Capacity:    []float64{2, 10},
		InterDelay:  [][]float64{{0, 40}, {40, 0}},
		Workload:    []float64{1, 3},
		ReconfPrice: []float64{1, 1},
		MigOutPrice: []float64{0.5, 0.5},
		MigInPrice:  []float64{0.5, 0.5},
		WOp:         1, WSq: 1, WRc: 1, WMg: 1,
		OpPrice:     [][]float64{{1, 1}},
		Attach:      [][]int{{1, 0}},
		AccessDelay: [][]float64{{1, 1}},
	}
}

// TestTheorem1GapWithoutCapacityRows documents the reproduction finding
// recorded in DESIGN.md §3b: P2 exactly as printed in the paper — demand
// rows plus complement-capacity rows only — can have an optimum that
// exceeds some cloud's capacity, contradicting Theorem 1's feasibility
// claim. It proves the gap on slot 0 of theorem1GapInstance without
// solving the literal program: it solves the program the package solves
// (demand + capacity), certifies that optimum by its KKT residual, and
// exhibits a point that meets the demand and complement rows, overloads
// cloud 0, and costs less. The literal optimum costs no more than that
// point, so less than every point within capacity: it must breach
// capacity.
func TestTheorem1GapWithoutCapacityRows(t *testing.T) {
	in := theorem1GapInstance()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	alg := NewOnlineApprox(in, Options{Solver: tightOpts()})
	sched, err := alg.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkKKT(t, "capped", alg, sched)
	obj := newP2Objective(in, 0, in.InitialAlloc(), alg.opts.Epsilon1, alg.opts.Epsilon2)
	capped := obj.Eval(sched[0].X, nil)

	// User 1's whole demand of 3 at its own cloud 0 (capacity 2), and the
	// complement row's Λ − C_0 = 2 units on cloud 1 parked on user 0, who
	// needs 1 there. Layout x_ij at i·J + j.
	point := []float64{0, 3, 2, 0}
	for j, l := range in.Workload {
		if served := point[j] + point[in.J+j]; served < l {
			t.Fatalf("point serves user %d %g < λ = %g", j, served, l)
		}
	}
	if v := complementViolation(in, point); v > 0 {
		t.Fatalf("point violates a complement row by %g", v)
	}
	overload := point[0] + point[1] - in.Capacity[0]
	if overload <= 0 {
		t.Fatalf("point within cloud 0's capacity")
	}
	literal := obj.Eval(point, nil)
	if literal >= capped-1e-3 {
		t.Fatalf("point costs %.6f, capped optimum %.6f: the instance no longer separates the programs",
			literal, capped)
	}
	t.Logf("Theorem-1 gap reproduced: a literal-feasible point costs %.4f < capped optimum %.4f, overloading cloud 0 by %g",
		literal, capped, overload)
}
