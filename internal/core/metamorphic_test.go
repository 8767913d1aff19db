package core

import (
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/baseline"
	"edgealloc/internal/conform"
	"edgealloc/internal/model"
)

// This file is the metamorphic half of the conformance harness (DESIGN.md
// §8): each conform transform changes the offline optimum in a provably
// predictable way, so baseline.ExactOffline becomes its own oracle — no
// reference implementation needed. The fast paths (candidate sets,
// structured kernels) are then held to the same 1e-8 slot-coupled
// agreement on transformed instances as on the originals, so a transform
// can never push an optimization outside its certified envelope.

// exactOpt solves the instance to LP optimality with the dense simplex.
func exactOpt(t *testing.T, in *model.Instance) float64 {
	t.Helper()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	_, opt, err := baseline.ExactOffline(in)
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

func relGap(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Abs(b))
}

// TestMetamorphicScalePricesExact: multiplying every price by α scales
// the optimal cost by exactly α, for any weight regime.
func TestMetamorphicScalePricesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 3; trial++ {
		in := smallRandomInstance(rng)
		opt := exactOpt(t, in)
		const alpha = 2.5
		scaled := exactOpt(t, conform.ScalePrices(in, alpha))
		if d := relGap(scaled, alpha*opt); d > 1e-8 {
			t.Errorf("trial %d: OPT(α·prices) = %g, want α·OPT = %g (rel %g)",
				trial, scaled, alpha*opt, d)
		}
	}
}

// TestMetamorphicScaleLoadExact: with WSq = 0 the cost is linear in the
// allocation and x ↦ αx bijects the feasible sets, so scaling capacities,
// workloads, and Init by α scales the optimum by exactly α.
func TestMetamorphicScaleLoadExact(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for trial := 0; trial < 3; trial++ {
		in := smallRandomInstance(rng)
		in.WSq = 0
		opt := exactOpt(t, in)
		const alpha = 1.75
		scaled := exactOpt(t, conform.ScaleLoad(in, alpha))
		if d := relGap(scaled, alpha*opt); d > 1e-8 {
			t.Errorf("trial %d: OPT(α·load) = %g, want α·OPT = %g (rel %g)",
				trial, scaled, alpha*opt, d)
		}
	}
}

// TestMetamorphicPermutationsExact: relabeling clouds or users leaves the
// optimum untouched.
func TestMetamorphicPermutationsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 2; trial++ {
		in := smallRandomInstance(rng)
		opt := exactOpt(t, in)
		pc := exactOpt(t, conform.PermuteClouds(in, rng.Perm(in.I)))
		if d := relGap(pc, opt); d > 1e-8 {
			t.Errorf("trial %d: OPT(π·clouds) = %g, want %g (rel %g)", trial, pc, opt, d)
		}
		pu := exactOpt(t, conform.PermuteUsers(in, rng.Perm(in.J)))
		if d := relGap(pu, opt); d > 1e-8 {
			t.Errorf("trial %d: OPT(π·users) = %g, want %g (rel %g)", trial, pu, opt, d)
		}
	}
}

// TestMetamorphicSplitUserExact: splitting a user into two half-workload
// users following the same trace preserves the optimum when WSq = 0 (the
// load-proportional cost terms are positively homogeneous per column; the
// per-user service-quality average would double, hence the regime).
func TestMetamorphicSplitUserExact(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	for trial := 0; trial < 3; trial++ {
		in := smallRandomInstance(rng)
		in.WSq = 0
		opt := exactOpt(t, in)
		split := exactOpt(t, conform.SplitUser(in, rng.Intn(in.J)))
		if d := relGap(split, opt); d > 1e-8 {
			t.Errorf("trial %d: OPT(split) = %g, want %g (rel %g)", trial, split, opt, d)
		}
	}
}

// coupledPathGaps generalizes coupledSlotGaps to any pair of solver
// configurations: both run over the instance with the cross-slot drift
// removed (after each slot the alternative path continues from the
// reference decision), and the per-slot relative P2-objective gap between
// the two decisions is measured under an independently built objective.
func coupledPathGaps(t *testing.T, in *model.Instance, ref, alt Options) []float64 {
	t.Helper()
	a := NewOnlineApprox(in, ref)
	b := NewOnlineApprox(in, alt)
	gaps := make([]float64, 0, in.T)
	for tt := 0; tt < in.T; tt++ {
		prevX := append([]float64(nil), a.prev.X...)
		xa, err := a.Step(tt)
		if err != nil {
			t.Fatal(err)
		}
		xb, err := b.Step(tt)
		if err != nil {
			t.Fatal(err)
		}
		obj := newP2Objective(in, tt,
			model.Alloc{I: in.I, J: in.J, X: prevX},
			a.opts.Epsilon1, a.opts.Epsilon2)
		fa := obj.Eval(xa.X, nil)
		fb := obj.Eval(xb.X, nil)
		gaps = append(gaps, math.Abs(fb-fa)/(1+math.Abs(fa)))
		recouple(b, xa.X)
	}
	return gaps
}

// TestMetamorphicFastPathsAgree holds the fast paths on *transformed*
// instances: aggressive candidate pruning (Candidates = 1) to the certified
// 1e-8 slot-coupled agreement with the dense solve, and the structured
// group-sum kernel's every slot to P2's KKT system (checkKKT).
func TestMetamorphicFastPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	base := smallRandomInstance(rng)
	transforms := []struct {
		name string
		in   *model.Instance
	}{
		{"scale-prices", conform.ScalePrices(base, 3)},
		{"scale-load", conform.ScaleLoad(base, 0.5)},
		{"permute-clouds", conform.PermuteClouds(base, rng.Perm(base.I))},
		{"permute-users", conform.PermuteUsers(base, rng.Perm(base.J))},
		{"split-user", conform.SplitUser(base, rng.Intn(base.J))},
	}
	for _, tr := range transforms {
		t.Run(tr.name, func(t *testing.T) {
			if err := tr.in.Validate(); err != nil {
				t.Fatal(err)
			}
			for tt, d := range coupledSlotGaps(t, tr.in, 1, ultraTightOpts()) {
				if d > 1e-8 {
					t.Errorf("candidate path slot %d: P2 rel gap %g > 1e-8", tt, d)
				}
			}
			alg := NewOnlineApprox(tr.in, Options{Solver: ultraTightOpts()})
			sched, err := alg.Run()
			if err != nil {
				t.Fatal(err)
			}
			checkKKT(t, "structured kernel", alg, sched)
		})
	}
}

// TestMetamorphicOnlineConformance closes the loop with the oracle: the
// online algorithm's runs on transformed instances must pass the full
// conformance check, certificate included.
func TestMetamorphicOnlineConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	base := smallRandomInstance(rng)
	for _, in := range []*model.Instance{
		conform.ScalePrices(base, 2),
		conform.PermuteUsers(base, rng.Perm(base.J)),
		conform.SplitUser(base, 0),
	} {
		alg := NewOnlineApprox(in, Options{Solver: tightOpts()})
		sched, err := alg.Run()
		if err != nil {
			t.Fatal(err)
		}
		cert, err := alg.Certificate()
		if err != nil {
			t.Fatal(err)
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
			t.Error(rep.Err())
		}
	}
}
