package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/conform"
	"edgealloc/internal/model"
)

// This file holds the differential fuzz targets of the conformance
// harness. The fuzzers mutate the scalar knobs of conform.GenConfig — a
// seed, clamped dimensions, and regime bits — so every input is a valid
// instance by construction and the search budget goes into exploring
// price/mobility/capacity regimes rather than rediscovering Validate.
// Seed corpora live under testdata/fuzz; `make fuzz` runs each target
// for FUZZTIME, and plain `go test` replays the committed seeds.

// span maps a fuzzed int into [lo, hi]; identical to the conform
// generator's clamp, re-derived here to pre-shape dimensions below the
// generator's own ceilings where ultra-tight solves would be too slow.
func span(v, lo, hi int) int {
	n := hi - lo + 1
	m := (v - lo) % n
	if m < 0 {
		m += n
	}
	return lo + m
}

// FuzzOnlineStep runs the full online algorithm on a generated instance
// and holds the result to every guarantee the oracle knows: Theorem-1
// feasibility, the Lemma-1 gap identity and bound, dual-certificate
// validity (Lemma 2), weak duality, and the Theorem-2 ratio — and every
// slot to P2's own KKT system (checkKKT), which is what the structured row
// kernel and the Newton solver must produce.
func FuzzOnlineStep(f *testing.F) {
	f.Add(int64(1), 3, 4, 3, false, false)
	f.Add(int64(7), 2, 1, 1, true, false)
	f.Add(int64(20140212), 6, 8, 4, false, true)
	f.Add(int64(13), 3, 4, 2, false, false)
	f.Add(int64(5), 2, 1, 3, false, false)
	f.Add(int64(77), 4, 5, 1, false, false)
	f.Fuzz(func(t *testing.T, seed int64, nI, nJ, nT int, tight, zeroSq bool) {
		in := conform.GenInstance(conform.GenConfig{
			Seed: seed, I: nI, J: nJ, T: nT, Tight: tight, ZeroSq: zeroSq})
		alg := NewOnlineApprox(in, Options{Solver: tightOpts()})
		sched, err := alg.Run()
		if err != nil {
			t.Fatal(err)
		}
		checkKKT(t, "run", alg, sched)
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
			t.Fatal(rep.Err())
		}
	})
}

// TestRatioBoundCoversLambdaNumerator runs the FuzzOnlineStep input whose
// one workload, λ = 0.2285, exceeds both capacities (0.179, 0.118). The run
// leaves capacity slack, so Theorem 2's comparison applies, and its P1 cost
// is 1.4027 times the certified bound. The paper's γ, built from the
// capacities alone, gives r = 1.3882 below that; the γ_λ RatioBound takes
// for a β with λ_j in its numerator gives r = 1.5057 above it.
func TestRatioBoundCoversLambdaNumerator(t *testing.T) {
	in := conform.GenInstance(conform.GenConfig{Seed: 221, I: 187, J: 1, T: 1, ZeroSq: true})
	alg := NewOnlineApprox(in, Options{Solver: tightOpts()})
	sched, err := alg.Run()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := alg.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := in.EvaluateP1(sched)
	if err != nil {
		t.Fatal(err)
	}
	ratio := in.Total(b) / (cert.LowerBoundP1() + cert.NuCharge)
	paper := 0.0
	for _, c := range in.Capacity {
		paper = max(paper, (c+1)*math.Log1p(c))
	}
	paper = 1 + paper*float64(in.I)
	r := alg.CompetitiveRatioBound()
	t.Logf("I=%d λ=%v C=%v: ALG/D = %.5f, r = %.5f (paper's γ: %.5f)", in.I, in.Workload, in.Capacity, ratio, r, paper)
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"ALG/D", ratio, 1.4027}, {"r", r, 1.5057}, {"the paper's r", paper, 1.3882}} {
		if math.Abs(c.got-c.want) > 1e-4 {
			t.Errorf("%s = %.6f, want %.4f", c.name, c.got, c.want)
		}
	}
	if !(ratio <= r) {
		t.Errorf("ALG/D = %g exceeds r = %g", ratio, r)
	}
	diag := &conform.Diagnostics{
		HasCertificate: true,
		LowerBoundP0:   cert.LowerBoundP0(),
		LowerBoundP1:   cert.LowerBoundP1(),
		DualResidual:   cert.Feasibility.Max(),
		NuCharge:       cert.NuCharge,
		RatioBound:     r,
	}
	if rep := conform.Check(in, sched, diag, conform.Options{}); !rep.OK() {
		t.Error(rep.Err())
	}
}

// FuzzCandidateVsDense is the certified-equality property under fuzzed
// regimes: with the candidate-set size the fuzzer picks (down to the
// most aggressive K = 1), every slot-coupled reduced solve must match
// the dense solve's P2 objective to 1e-6 relative. The deterministic
// metamorphic suite holds its curated instances to 1e-8; fuzzed
// instances get headroom because the bound measures the difference of
// two independent ALM convergence errors, whose tail over arbitrary
// instance conditioning reaches ~1e-7 (seed-tolerance-edge,
// seed-conditioning-tail). A wrongly pruned pair moves the objective
// orders of magnitude more than that, so the bound still detects every
// path divergence.
func FuzzCandidateVsDense(f *testing.F) {
	f.Add(int64(41), 3, 3, 2, 1)
	f.Add(int64(11), 2, 5, 3, 2)
	f.Add(int64(97), 4, 1, 1, 3)
	f.Fuzz(func(t *testing.T, seed int64, nI, nJ, nT, k int) {
		// Dimensions stay below the generator's ceilings: the ultra-tight
		// tolerances the 1e-8 claim needs only converge on small programs.
		in := conform.GenInstance(conform.GenConfig{
			Seed: seed, I: span(nI, 2, 4), J: span(nJ, 1, 5), T: span(nT, 1, 3)})
		for tt, d := range coupledSlotGaps(t, in, span(k, 1, in.I), ultraTightOpts()) {
			if d > 1e-6 {
				t.Errorf("slot %d (I=%d J=%d): P2 objective rel gap %g > 1e-6",
					tt, in.I, in.J, d)
			}
		}
	})
}

// FuzzShardVsDense is the sharded-path certified-equality property under
// fuzzed regimes: for any shard count the fuzzer picks (including S = 1
// and S > J, which clamps to one user per shard), every slot-coupled
// assembled solve must match the dense solve's P2 objective to 1e-6
// relative — the same fuzz-headroom rationale as FuzzCandidateVsDense,
// with the coordination loop run to a 1e-10 consensus residual. A
// price-coordination bug (wrong target split, stale consensus duals, a
// block assembled out of order) moves the objective far beyond that.
func FuzzShardVsDense(f *testing.F) {
	f.Add(int64(41), 3, 3, 2, 2)
	f.Add(int64(11), 2, 5, 3, 4)
	f.Add(int64(97), 4, 1, 1, 1)
	f.Fuzz(func(t *testing.T, seed int64, nI, nJ, nT, s int) {
		in := conform.GenInstance(conform.GenConfig{
			Seed: seed, I: span(nI, 2, 4), J: span(nJ, 1, 5), T: span(nT, 1, 3)})
		gaps := coupledPathGaps(t, in,
			Options{Solver: ultraTightOpts()}, shardTestOpts(span(s, 1, in.J+2)))
		for tt, d := range gaps {
			if d > 1e-6 {
				t.Errorf("slot %d (I=%d J=%d): P2 objective rel gap %g > 1e-6",
					tt, in.I, in.J, d)
			}
		}
	})
}

// FuzzIncrementalVsFull is the incremental tier's differential fuzz:
// under fuzzed regimes and churn rates — the attachment traces are
// rewritten so exactly ⌈churn·J⌉ users move per slot, spanning the 0%
// all-frozen and 100% nothing-frozen edges — every slot-coupled
// delta-driven solve must match the full solve's P2 objective to 1e-6
// relative (fuzz headroom as above; the deterministic suite pins 1e-8).
// A gate that wrongly certifies a frozen user moves the objective far
// beyond that, so the bound detects every soundness failure.
func FuzzIncrementalVsFull(f *testing.F) {
	f.Add(int64(41), 3, 3, 2, 0)
	f.Add(int64(11), 2, 5, 3, 35)
	f.Add(int64(97), 4, 4, 3, 100)
	f.Fuzz(func(t *testing.T, seed int64, nI, nJ, nT, churnPct int) {
		in := conform.GenInstance(conform.GenConfig{
			Seed: seed, I: span(nI, 2, 4), J: span(nJ, 1, 5), T: span(nT, 1, 3)})
		churn := float64(span(churnPct, 0, 100)) / 100
		withChurn(in, churn, rand.New(rand.NewSource(seed^0x5eed)))
		gaps := coupledPathGaps(t, in, Options{Solver: ultraTightOpts()}, incrTightOpts())
		for tt, d := range gaps {
			if d > 1e-6 {
				t.Errorf("slot %d (I=%d J=%d churn=%g): P2 objective rel gap %g > 1e-6",
					tt, in.I, in.J, churn, d)
			}
		}
	})
}

// TestIncrementalVsFullRegimes runs the incremental-vs-full comparison of
// FuzzIncrementalVsFull, at its 1e-6 slot-gap bound, in the two generator
// regimes that target's knobs never draw: WSq = 0, where every κ_j of the
// freeze gate's candidate clouds is 0 and each attachment's lines are flat,
// and Tight capacity, where binding capacity rows put ν > 0 into the gate's
// per-cloud terms. Each regime runs 40 seeds, and each must gate frozen
// users, under a binding row in the Tight regime.
func TestIncrementalVsFullRegimes(t *testing.T) {
	t.Parallel()
	for _, r := range []struct {
		name          string
		zeroSq, tight bool
	}{{"ZeroSq", true, false}, {"Tight", false, true}} {
		gated, binding := 0, 0
		for seed := int64(1); seed <= 40; seed++ {
			in := conform.GenInstance(conform.GenConfig{Seed: 7919 * seed,
				I: span(int(seed), 2, 4), J: span(int(seed/3), 1, 5), T: span(int(seed/2), 2, 3),
				ZeroSq: r.zeroSq, Tight: r.tight})
			churn := float64(span(int(37*seed), 0, 100)) / 100
			withChurn(in, churn, rand.New(rand.NewSource(seed^0x5eed)))
			full, incr := NewOnlineApprox(in, Options{Solver: ultraTightOpts()}), NewOnlineApprox(in, incrTightOpts())
			for tt := 0; tt < in.T; tt++ {
				prevX := append([]float64(nil), full.prev.X...)
				xf, err := full.Step(tt)
				if err != nil {
					t.Fatal(err)
				}
				xi, err := incr.Step(tt)
				if err != nil {
					t.Fatal(err)
				}
				obj := newP2Objective(in, tt, model.Alloc{I: in.I, J: in.J, X: prevX}, full.opts.Epsilon1, full.opts.Epsilon2)
				ff, fi := obj.Eval(xf.X, nil), obj.Eval(xi.X, nil)
				if d := math.Abs(fi-ff) / (1 + math.Abs(ff)); d > 1e-6 {
					t.Errorf("%s seed %d slot %d (I=%d J=%d churn=%g): P2 objective rel gap %g > 1e-6",
						r.name, seed, tt, in.I, in.J, churn, d)
				}
				if incr.LastStepDiag().FrozenUsers+incr.LastStepDiag().ReadmittedUsers > 0 {
					gated++
					for _, nu := range incr.duals[tt][in.J:] {
						if nu > 0 {
							binding++
							break
						}
					}
				}
				recouple(incr, xf.X)
			}
		}
		t.Logf("%s: %d gated slots, %d of them under a binding capacity row", r.name, gated, binding)
		if gated < 20 || r.tight && binding < 10 {
			t.Errorf("%s: %d gated slots, %d under a binding capacity row: the regime went unexercised", r.name, gated, binding)
		}
	}
}

// FuzzStructuredVsDenseRows holds the structured group-sum row kernel,
// under the ultra-tight solver options, to P2's KKT system written out
// over the instance's dense row sums (checkKKT) on every slot of a run.
// FuzzOnlineStep runs the same inputs under the tests' tight options and
// the full oracle.
func FuzzStructuredVsDenseRows(f *testing.F) {
	f.Add(int64(13), 3, 4, 2)
	f.Add(int64(5), 2, 1, 3)
	f.Add(int64(77), 4, 5, 1)
	f.Fuzz(func(t *testing.T, seed int64, nI, nJ, nT int) {
		in := conform.GenInstance(conform.GenConfig{
			Seed: seed, I: span(nI, 2, 4), J: span(nJ, 1, 5), T: span(nT, 1, 3)})
		alg := NewOnlineApprox(in, Options{Solver: ultraTightOpts()})
		sched, err := alg.Run()
		if err != nil {
			t.Fatal(err)
		}
		checkKKT(t, fmt.Sprintf("I=%d J=%d T=%d", in.I, in.J, in.T), alg, sched)
	})
}

// TestCertificateClampsBeta runs the FuzzOnlineStep inputs whose decisions
// over-provision a pair (x_ij > λ_j, where the paper's β_{ij,t+1} is
// negative) and requires the certificate, built on β̃ = max(β, 0), to be
// dual-feasible to 1e-5 and the run conformance-clean. With the unclamped
// β their whole residual was Negativity: 0.021, 0.092 and 0.300.
func TestCertificateClampsBeta(t *testing.T) {
	for _, c := range []struct {
		seed       int64
		nI, nJ, nT int
	}{{20140218, 183, 79, 4}, {-7, 3, 14, 130}, {79, -273, -204, -55}} {
		name := fmt.Sprintf("(%d, %d, %d, %d)", c.seed, c.nI, c.nJ, c.nT)
		in := conform.GenInstance(conform.GenConfig{Seed: c.seed, I: c.nI, J: c.nJ, T: c.nT})
		alg := NewOnlineApprox(in, Options{Solver: tightOpts()})
		sched, err := alg.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		over := math.Inf(-1)
		for _, x := range sched {
			for k, v := range x.X {
				over = max(over, v-in.Workload[k%in.J])
			}
		}
		if !(over > 0) {
			t.Errorf("%s: no pair over-provisioned (max x−λ %g)", name, over)
		}
		cert, err := alg.Certificate()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r := cert.Feasibility.Max(); !(r <= 1e-5) {
			t.Errorf("%s: dual residual %g > 1e-5 (%+v)", name, r, cert.Feasibility)
		}
		t.Logf("%s: I=%d J=%d T=%d, max x−λ %.3g, dual residual %.3g", name, in.I, in.J, in.T, over, cert.Feasibility.Max())
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
	}
}
