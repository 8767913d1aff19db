package core

import (
	"testing"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
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
// recorded in DESIGN.md §3b: solving P2 exactly as printed in the paper —
// demand rows plus complement-capacity rows only — can yield an optimum
// that exceeds some cloud's capacity, contradicting Theorem 1's
// feasibility claim. The test solves slot 0 of theorem1GapInstance both
// ways and asserts (a) the literal P2 optimum is strictly cheaper than the
// capacity-constrained one (so the violation is not a solver artifact)
// and (b) it indeed breaches capacity.
func TestTheorem1GapWithoutCapacityRows(t *testing.T) {
	in := theorem1GapInstance()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	o := NewOnlineApprox(in, Options{})
	obj := newP2Objective(in, 0, o.prev, o.opts.Epsilon1, o.opts.Epsilon2)
	warm, err := feasibleWarmStart(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	cappedRows := p2Constraints(in) // what the program solves: demand + capacity
	// The paper's rows only: demand + complement.
	literalRows := append(cappedRows[:in.J:in.J], p2ComplementRows(in)...)

	solve := func(cons []alm.Constraint) *alm.Result {
		res, err := alm.Solve(&alm.Problem{
			Obj: obj, N: in.I * in.J,
			Cons: cons,
		}, alm.Options{MaxOuter: 80, InnerIters: 1200, FeasTol: 1e-7, Penalty: 2, WarmX: warm})
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxViolation > 1e-5 {
			t.Fatalf("solver left violation %g", res.MaxViolation)
		}
		return res
	}

	lit := solve(literalRows)
	capped := solve(cappedRows)

	if lit.Objective >= capped.Objective-1e-3 {
		t.Fatalf("literal optimum %.6f not cheaper than capped %.6f: the instance no longer separates them",
			lit.Objective, capped.Objective)
	}

	// The strictly cheaper literal optimum must be the capacity violator.
	overload := 0.0
	for i := 0; i < in.I; i++ {
		load := 0.0
		for j := 0; j < in.J; j++ {
			load += lit.X[i*in.J+j]
		}
		if v := load - in.Capacity[i]; v > overload {
			overload = v
		}
	}
	if overload < 1e-3 {
		t.Fatalf("literal P2 optimum cheaper by %g yet within capacity — unexpected",
			capped.Objective-lit.Objective)
	}
	t.Logf("Theorem-1 gap reproduced: literal optimum %.4f < capped %.4f, worst overload %.4f",
		lit.Objective, capped.Objective, overload)
}
