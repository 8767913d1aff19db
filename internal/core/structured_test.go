package core

import (
	"testing"

	"edgealloc/internal/scenario"
	"edgealloc/internal/solver/alm"
)

// TestStructuredMatchesDenseRows runs the full online algorithm on a Rome
// window and holds every slot to P2's KKT system written out over the
// instance's dense row sums (checkKKT): the reference the structured
// group-sum kernel and the Newton solver answer to, with no second solve
// whose own accuracy would bound the comparison. Per-evaluation kernel
// agreement with the written-out rows (1e-10) is pinned by alm's
// TestGroupsLagrangianMatchesDense. The certificate built on the run's
// duals must be feasible to round-off.
func TestStructuredMatchesDenseRows(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 8, Horizon: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	alg := NewOnlineApprox(in, Options{Solver: tightOpts()})
	sched, err := alg.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("KKT residual %+v", checkKKT(t, "rome", alg, sched))
	cert, err := alg.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	if v := cert.Feasibility.Max(); v > 1e-6 {
		t.Errorf("dual feasibility violation %g", v)
	}
}

// TestStructuredCertificateStillValid checks the dual-certificate
// machinery consumes structured-path duals as well as it did dense ones:
// the certified lower bound must stay positive, below the online cost,
// and the constructed dual point must stay feasible to round-off.
func TestStructuredCertificateStillValid(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 8, Horizon: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	alg := NewOnlineApprox(in, Options{})
	sched, err := alg.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := in.Evaluate(sched)
	if err != nil {
		t.Fatal(err)
	}
	online := in.Total(b)
	cert, err := alg.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	if lb := cert.LowerBoundP1(); lb <= 0 {
		t.Errorf("certified lower bound %g, want positive", lb)
	} else if lb > online*(1+1e-9) {
		t.Errorf("certified lower bound %g exceeds online cost %g", lb, online)
	}
	if v := cert.Feasibility.Max(); v > 1e-6 {
		t.Errorf("dual feasibility violation %g, want round-off level", v)
	}
}

// TestStepWorkersByteIdentical pins that Solver.Workers reaches no bit
// of the single program: the full online run must produce
// bitwise-identical decisions and duals for any Solver.Workers value.
func TestStepWorkersByteIdentical(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 10, Horizon: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *OnlineApprox {
		alg := NewOnlineApprox(in, Options{Solver: alm.Options{Workers: workers}})
		if _, err := alg.Run(); err != nil {
			t.Fatal(err)
		}
		return alg
	}
	base := run(1)
	bs := base.Schedule()
	bDuals := base.Duals()
	for _, w := range []int{2, 4, 7} {
		got := run(w)
		gs := got.Schedule()
		for tt := range bs {
			for k := range bs[tt].X {
				if gs[tt].X[k] != bs[tt].X[k] {
					t.Fatalf("workers=%d slot %d: x[%d] = %v != serial %v",
						w, tt, k, gs[tt].X[k], bs[tt].X[k])
				}
			}
		}
		gDuals := got.Duals()
		for tt := range bDuals {
			for k := range bDuals[tt] {
				if gDuals[tt][k] != bDuals[tt][k] {
					t.Fatalf("workers=%d slot %d: dual[%d] differs", w, tt, k)
				}
			}
		}
	}
}
