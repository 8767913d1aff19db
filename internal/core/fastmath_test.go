package core

import (
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/conform"
)

// allTiersFastOpts is the sharded tier product at certification budgets:
// two shards, candidate sets, fast-math (Incremental does not compose with
// Shards).
func allTiersFastOpts() Options {
	o := shardTestOpts(2)
	o.Candidates, o.FastMath = 2, true
	return o
}

// TestFastMathMatchesExactSmallInstances is the cost-agreement property
// of the batch-kernel tier: on random small instances solved ultra-tight,
// the FastMath schedule must match the exact schedule's P2 objective to
// 1e-8 relative, slot-coupled, on both the dense and the candidate-set
// paths. The bound is the same one the candidate-set certification work
// carries: it measures kernel error plus the difference of two solver
// convergence errors, and ≤1e-12-per-operation kernels leave the solver
// term dominant.
func TestFastMathMatchesExactSmallInstances(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(61))
	// The incremental rows pin against the dense exact solve, like the
	// incremental tier's own property tests; the sharded row runs the
	// sharded tier product, on the first trials only (its ultra-tight
	// coordination costs seconds per instance).
	rows := []struct {
		name     string
		trials   int
		ref, alt Options
	}{
		{"dense", 8, Options{Solver: ultraTightOpts()}, Options{Solver: ultraTightOpts(), FastMath: true}},
		{"candidate", 8, Options{Solver: ultraTightOpts(), Candidates: 2},
			Options{Solver: ultraTightOpts(), Candidates: 2, FastMath: true}},
		{"candidate+incremental", 8, Options{Solver: ultraTightOpts()},
			Options{Solver: ultraTightOpts(), Candidates: 2, Incremental: true, IncrementalTol: 1e-9, FastMath: true}},
		{"shard+candidate", 2, Options{Solver: ultraTightOpts()}, allTiersFastOpts()},
	}
	for trial := 0; trial < 8; trial++ {
		in := smallRandomInstance(rng)
		for _, row := range rows {
			if trial >= row.trials {
				continue
			}
			for s, gap := range coupledPathGaps(t, in, row.ref, row.alt) {
				if gap > 1e-8 {
					t.Errorf("trial %d slot %d: %s fastmath gap %.3e > 1e-8", trial, s, row.name, gap)
				}
			}
		}
	}
}

// TestFastMathConformance runs the full paper-conformance oracle on a
// FastMath schedule: Theorem-1 feasibility, the Lemma-1 identity, dual
// certificate validity, weak duality, and the Theorem-2 ratio must all
// hold on the fast path exactly as they do on the exact path.
func TestFastMathConformance(t *testing.T) {
	for _, opts := range []Options{
		{Solver: tightOpts(), FastMath: true},
		{Solver: tightOpts(), Candidates: 2, FastMath: true},
		{Solver: tightOpts(), Candidates: 2, Incremental: true, IncrementalTol: 1e-9, FastMath: true},
		// The sharded tier product, at the table's solver budget and a
		// coordination budget that converges on this instance.
		{Solver: tightOpts(), Shards: 2, ShardMaxIters: 100, ShardPrimalTol: 1e-8, ShardDualTol: 1e-7,
			Candidates: 2, FastMath: true},
	} {
		in := conform.GenInstance(conform.GenConfig{Seed: 11, I: 4, J: 6, T: 4})
		alg := NewOnlineApprox(in, opts)
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
			t.Fatalf("candidates=%d incremental=%v shards=%d: %v",
				opts.Candidates, opts.Incremental, opts.Shards, rep.Err())
		}
	}
}

// TestFastMathDeterministicAcrossWorkers pins the fast tier's own
// reproducibility: FastMath changes results relative to the exact path,
// but for a fixed configuration the schedule must stay byte-identical
// for any Solver.Workers value.
func TestFastMathDeterministicAcrossWorkers(t *testing.T) {
	in := conform.GenInstance(conform.GenConfig{Seed: 5, I: 4, J: 5, T: 3})
	run := func(workers int) []float64 {
		opts := Options{Solver: tightOpts(), FastMath: true}
		opts.Solver.Workers = workers
		sched, err := NewOnlineApprox(in, opts).Run()
		if err != nil {
			t.Fatal(err)
		}
		var flat []float64
		for _, a := range sched {
			flat = append(flat, a.X...)
		}
		return flat
	}
	base := run(1)
	for _, w := range []int{2, 4} {
		got := run(w)
		for k := range base {
			if math.Float64bits(got[k]) != math.Float64bits(base[k]) {
				t.Fatalf("workers=%d: decision differs at %d: %g vs %g", w, k, got[k], base[k])
			}
		}
	}
}
