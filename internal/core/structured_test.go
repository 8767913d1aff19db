package core

import (
	"math"
	"testing"

	"edgealloc/internal/scenario"
	"edgealloc/internal/solver/alm"
)

// TestStructuredMatchesDenseRows runs the full online algorithm with the
// structured group-sum kernel and with the dense sparse-row reference on
// the same instance and requires the per-slot decisions, total costs, and
// the certified lower bounds to agree.
//
// Two effects bound how tight this end-to-end comparison can be. First,
// inner solves are inexact, so the two arithmetic paths land at slightly
// different points inside the solver's tolerance ball, and the drift
// chains through warm starts and prevTot across slots (slot 0 agrees to
// ~1e-9; later slots to ~1e-3 scaled). Second, where capacity binds at a
// demand-tight point the optimal dual set is a face, not a point, so raw
// multiplier vectors can legitimately differ between the paths even where
// X agrees to round-off. The duals are therefore compared through their
// consumer, the competitive-ratio certificate, whose lower bound is
// invariant on the optimal face; exact
// per-evaluation kernel agreement (1e-10) and converged-dual agreement on
// cold-started solves are pinned by the property tests in
// internal/solver/alm.
func TestStructuredMatchesDenseRows(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 8, Horizon: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Tight per-slot solves keep the warm-start chains from drifting
	// apart within the solver's slack.
	opts := alm.Options{MaxOuter: 200, InnerIters: 2000,
		FeasTol: 1e-9, DualTol: 1e-7, ObjTol: 1e-11}
	run := func(dense bool) *OnlineApprox {
		alg := NewOnlineApprox(in, Options{denseRows: dense, Solver: opts})
		if _, err := alg.Run(); err != nil {
			t.Fatal(err)
		}
		return alg
	}
	structured := run(false)
	dense := run(true)

	ss, ds := structured.Schedule(), dense.Schedule()
	for tt := range ss {
		for k := range ss[tt].X {
			if d := math.Abs(ss[tt].X[k] - ds[tt].X[k]); d > 5e-3*(1+math.Abs(ds[tt].X[k])) {
				t.Errorf("slot %d: x[%d] = %g structured vs %g dense", tt, k, ss[tt].X[k], ds[tt].X[k])
			}
		}
	}
	sb, err := in.Evaluate(ss)
	if err != nil {
		t.Fatal(err)
	}
	db, err := in.Evaluate(ds)
	if err != nil {
		t.Fatal(err)
	}
	st, dt := in.Total(sb), in.Total(db)
	if d := math.Abs(st-dt) / (1 + math.Abs(dt)); d > 1e-5 {
		t.Errorf("total cost %g structured vs %g dense", st, dt)
	}

	sCert, err := structured.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	dCert, err := dense.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	if v := sCert.Feasibility.Max(); v > 1e-6 {
		t.Errorf("structured dual feasibility violation %g", v)
	}
	if v := dCert.Feasibility.Max(); v > 1e-6 {
		t.Errorf("dense dual feasibility violation %g", v)
	}
	slb, dlb := sCert.LowerBoundP1(), dCert.LowerBoundP1()
	if d := math.Abs(slb-dlb) / (1 + math.Abs(dlb)); d > 1e-3 {
		t.Errorf("certified lower bound %g structured vs %g dense", slb, dlb)
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
