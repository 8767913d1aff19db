package alm_test

import (
	"fmt"
	"math"
	"testing"

	"edgealloc/internal/conform"
	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
)

// tierRun is one online run's outcome: per-slot convergence, the
// second-order steps its solves took, and its total cost.
type tierRun struct {
	converged []bool
	steps     int
	cost      float64
}

// runTier runs the online algorithm over in and holds the run to the
// conformance oracle, certificate included.
func runTier(t *testing.T, name string, in *model.Instance, opts core.Options) tierRun {
	t.Helper()
	alg := core.NewOnlineApprox(in, opts)
	var r tierRun
	sched := make(model.Schedule, in.T)
	for tt := 0; tt < in.T; tt++ {
		x, err := alg.Step(tt)
		if err != nil {
			t.Fatalf("%s: slot %d: %v", name, tt, err)
		}
		sched[tt] = x.Clone()
		d := alg.LastStepDiag()
		r.converged = append(r.converged, d.Converged)
		r.steps += d.DualSteps
	}
	cert, err := alg.Certificate()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	diag := &conform.Diagnostics{
		HasCertificate: true,
		LowerBoundP0:   cert.LowerBoundP0(),
		LowerBoundP1:   cert.LowerBoundP1(),
		DualResidual:   cert.Feasibility.Max(),
		NuCharge:       cert.NuCharge,
		RatioBound:     alg.CompetitiveRatioBound(),
	}
	if rep := conform.Check(in, sched, diag, conform.Options{}); !rep.OK() {
		t.Errorf("%s: %v", name, rep.Err())
	}
	b, err := in.Evaluate(sched)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r.cost = in.Total(b)
	return r
}

// TestDualStepMatchesFirstOrder runs the default, candidate and
// incremental tiers over conform.GenInstance seeds 1–60, capacity tight and
// not, once with the second-order multiplier step and once with every
// update first order: the two must converge on the same slots and cost the
// same to 1e-8 relative, and every run must be conformance-clean. The
// step changes how many outer iterations the solves take to meet the stop
// rule, not what meeting it means.
func TestDualStepMatchesFirstOrder(t *testing.T) {
	tiers := []struct {
		name string
		opts core.Options
	}{
		{"default", core.Options{}},
		{"Candidates", core.Options{Candidates: 2}},
		{"Incremental", core.Options{Incremental: true}},
	}
	steps := 0
	for seed := int64(1); seed <= 60; seed++ {
		for _, tight := range []bool{false, true} {
			in := conform.GenInstance(conform.GenConfig{
				Seed: seed, I: int(seed), J: int(3 * seed), T: int(7 * seed), Tight: tight})
			for _, tier := range tiers {
				name := fmt.Sprintf("seed %d tight %v %s (I=%d J=%d T=%d)", seed, tight, tier.name, in.I, in.J, in.T)
				second := runTier(t, name, in, tier.opts)
				restore := alm.SetFirstOrderDuals(true)
				first := runTier(t, name+", first order", in, tier.opts)
				restore()
				if first.steps != 0 {
					t.Fatalf("%s: %d second-order steps with the hook set", name, first.steps)
				}
				steps += second.steps
				for tt := range second.converged {
					if second.converged[tt] != first.converged[tt] {
						t.Errorf("%s: slot %d converged %v, first order %v", name, tt, second.converged[tt], first.converged[tt])
					}
				}
				if d := math.Abs(second.cost-first.cost) / math.Abs(first.cost); !(d <= 1e-8) {
					t.Errorf("%s: cost %.12g, first order %.12g (%.2g relative)", name, second.cost, first.cost, d)
				}
			}
		}
	}
	if steps == 0 {
		t.Error("no run took a second-order step")
	}
	t.Logf("%d second-order steps over the runs that could take them", steps)
}
