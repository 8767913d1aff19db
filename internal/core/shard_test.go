package core

import (
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/conform"
	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
)

// shardTestOpts returns sharded-path options tight enough that the
// assembled optimum lands in the same ~1e-9 tolerance ball as the
// unsharded ultra-tight solve: the coordination loop runs to a 1e-10
// consensus residual with the block and z-solves at ultraTightOpts.
func shardTestOpts(shards int) Options {
	return Options{
		Solver:         ultraTightOpts(),
		Shards:         shards,
		ShardMaxIters:  400,
		ShardPrimalTol: 1e-10,
		ShardDualTol:   1e-9,
	}
}

// TestShardMatchesDenseSmallInstances is the certified-equality property
// test of the sharded path: over random instances and shard counts, every
// slot's assembled sharded decision must match the unsharded dense
// solve's P2 cost to 1e-8 relative (cross-slot drift removed by coupling
// the sharded path to the dense decisions).
func TestShardMatchesDenseSmallInstances(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		in := smallRandomInstance(rng)
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		shards := 1 + rng.Intn(in.J+2) // includes S > J (clamped)
		ultra := ultraTightOpts()
		gaps := coupledPathGaps(t, in, Options{Solver: ultra}, shardTestOpts(shards))
		for tt, d := range gaps {
			if d > 1e-8 {
				t.Errorf("trial %d (S=%d, I=%d, J=%d): slot %d P2 rel gap %g > 1e-8",
					trial, shards, in.I, in.J, tt, d)
			}
		}
	}
}

// TestShardWithCandidatesMatchesDense composes the two reductions: the
// sharded coordination loop with per-shard certified candidate sets must
// still land in the dense optimum's tolerance ball (the per-shard pricing
// pass re-admits anything the seeds miss).
func TestShardWithCandidatesMatchesDense(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 4; trial++ {
		in := smallRandomInstance(rng)
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		opts := shardTestOpts(1 + rng.Intn(3))
		opts.Candidates = 2
		gaps := coupledPathGaps(t, in, Options{Solver: ultraTightOpts()}, opts)
		for tt, d := range gaps {
			if d > 1e-8 {
				t.Errorf("trial %d (S=%d, I=%d, J=%d): slot %d P2 rel gap %g > 1e-8",
					trial, opts.Shards, in.I, in.J, tt, d)
			}
		}
	}
}

// TestShardDeterministicForAnyWorkers pins the parallelism contract of
// every sharded pass that runs over the blocks concurrently — slot
// preparation, the coordinator's block solves, and the pricing pass: with
// the shard count fixed, the schedule, the certificate's lower bound and
// dual feasibility, and every non-timing StepDiag counter must be
// byte-identical for every Solver.Workers value (blocks write only their
// own slots, reduced in shard index order afterwards) and, run to run,
// for the same worker count.
func TestShardDeterministicForAnyWorkers(t *testing.T) {
	t.Parallel()
	in, _, err := scenario.Rome(scenario.Config{Users: 10, Horizon: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		sched model.Schedule
		diags []StepDiag // timing fields zeroed
		lb    float64
		feas  Feasibility
	}
	run := func(opts Options, workers int) outcome {
		opts.Solver.Workers = workers
		alg := NewOnlineApprox(in, opts)
		var out outcome
		for tt := 0; tt < in.T; tt++ {
			if _, err := alg.Step(tt); err != nil {
				t.Fatal(err)
			}
			d := alg.LastStepDiag()
			d.Seconds, d.BindSeconds, d.CertifySeconds, d.CommitSeconds, d.ShardMaxSeconds = 0, 0, 0, 0, 0
			out.diags = append(out.diags, d)
		}
		cert, err := alg.Certificate()
		if err != nil {
			t.Fatal(err)
		}
		out.sched, out.lb, out.feas = alg.Schedule(), cert.LowerBoundP0(), cert.Feasibility
		return out
	}
	for _, tc := range []struct {
		name  string
		opts  Options
		check func(diags []StepDiag) string
	}{
		{"Candidates+Shards", Options{Shards: 3, Candidates: 3},
			func(diags []StepDiag) string {
				for _, d := range diags {
					if d.CandExpanded > 0 {
						return ""
					}
				}
				return "no slot expanded a candidate set: the pricing pass is untested"
			}},
	} {
		base := run(tc.opts, 1)
		if msg := tc.check(base.diags); msg != "" {
			t.Fatalf("%s: %s", tc.name, msg)
		}
		for _, w := range []int{1, 2, 4, 7} {
			for rep := 0; rep < 3; rep++ {
				got := run(tc.opts, w)
				for tt := range base.sched {
					if !allocsEqual(got.sched[tt], base.sched[tt]) {
						t.Fatalf("%s workers=%d run %d: slot %d schedule differs from serial", tc.name, w, rep, tt)
					}
					if got.diags[tt] != base.diags[tt] {
						t.Fatalf("%s workers=%d run %d: slot %d diagnostics %+v, serial %+v",
							tc.name, w, rep, tt, got.diags[tt], base.diags[tt])
					}
				}
				if got.lb != base.lb || got.feas != base.feas {
					t.Fatalf("%s workers=%d run %d: certificate (%v, %+v), serial (%v, %+v)",
						tc.name, w, rep, got.lb, got.feas, base.lb, base.feas)
				}
			}
		}
	}
}

// TestShardCountDeterministicRerun requires run-to-run byte-identity at
// every shard count, including S = 1 (one block plus coordination) and
// an S larger than J (clamped to one user per shard).
func TestShardCountDeterministicRerun(t *testing.T) {
	t.Parallel()
	in, _, err := scenario.Rome(scenario.Config{Users: 6, Horizon: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 2, 5, 64} {
		run := func() model.Schedule {
			sched, err := NewOnlineApprox(in, Options{Shards: s}).Run()
			if err != nil {
				t.Fatal(err)
			}
			return sched
		}
		a, b := run(), run()
		for tt := range a {
			if !allocsEqual(a[tt], b[tt]) {
				t.Fatalf("S=%d slot %d: reruns differ", s, tt)
			}
		}
	}
}

// TestShardFullRunFeasibleAndCertified runs the sharded path uncoupled
// over a full horizon and requires everything the dense path guarantees:
// Theorem-1 feasibility via the conformance oracle, a valid
// competitive-ratio certificate, and end-to-end cost agreement with the
// dense run (loosened to 1e-4 by warm-start drift chaining through
// uncoupled slots).
func TestShardFullRunFeasibleAndCertified(t *testing.T) {
	t.Parallel()
	for _, opts := range []Options{
		shardTestOpts(2),
		func() Options { o := shardTestOpts(3); o.Candidates = 2; return o }(),
	} {
		in := conform.GenInstance(conform.GenConfig{Seed: 11, I: 4, J: 6, T: 4})
		alg := NewOnlineApprox(in, opts)
		iters := 0
		for tt := 0; tt < in.T; tt++ {
			if _, err := alg.Step(tt); err != nil {
				t.Fatal(err)
			}
			iters += alg.LastStepDiag().ShardIters
		}
		if iters < in.T {
			t.Errorf("S=%d: %d coordination iterations over %d slots", opts.Shards, iters, in.T)
		}
		sched := alg.Schedule()
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
			t.Fatalf("S=%d candidates=%d: %v", opts.Shards, opts.Candidates, rep.Err())
		}

		dense := NewOnlineApprox(in, Options{Solver: ultraTightOpts()})
		ds, err := dense.Run()
		if err != nil {
			t.Fatal(err)
		}
		scost := totalOf(t, in, sched)
		dcost := totalOf(t, in, ds)
		if d := math.Abs(scost-dcost) / (1 + math.Abs(dcost)); d > 1e-4 {
			t.Errorf("S=%d: total cost %g sharded vs %g dense (rel %g)",
				opts.Shards, scost, dcost, d)
		}
	}
}

// TestStepCtxCancellationShards extends the cancellation contract to the
// sharded path: aborted coordination loops must leave the committed warm
// state (block iterates, consensus duals, candidate support) exactly as
// the previous successful slot wrote it.
func TestStepCtxCancellationShards(t *testing.T) {
	in := smallRandomInstance(rand.New(rand.NewSource(41)))
	testCancellation(t, in, Options{Shards: 2})
	testCancellation(t, in, Options{Shards: 3, Candidates: 2})
}

// TestShardRestoredReportsRestoration pins StepDiag.ShardRestored, the
// mass the capacity restoration moved on a slot: a coordination loop
// starved at ShardMaxIters = 2 leaves totals over capacity and some slot
// reports it, while a converged tight loop moves round-off only.
func TestShardRestoredReportsRestoration(t *testing.T) {
	t.Parallel()
	in := conform.GenInstance(conform.GenConfig{Seed: 11, I: 4, J: 6, T: 4})
	load := 0.0
	for _, w := range in.Workload {
		load += w
	}
	restored := func(opts Options) (most float64) {
		alg := NewOnlineApprox(in, opts)
		for tt := 0; tt < in.T; tt++ {
			if _, err := alg.Step(tt); err != nil {
				t.Fatal(err)
			}
			d := alg.LastStepDiag()
			if d.ShardRestored < 0 || (opts.ShardMaxIters > 2 && !d.Converged) {
				t.Fatalf("%+v slot %d: restored %g, converged %v", opts, tt, d.ShardRestored, d.Converged)
			}
			most = max(most, d.ShardRestored)
		}
		return most
	}
	starved := shardTestOpts(2)
	starved.ShardMaxIters = 2
	if got := restored(starved); got < 1e-3*load {
		t.Errorf("starved coordination: most mass restored on a slot %g, want ≥ %g", got, 1e-3*load)
	}
	if got := restored(shardTestOpts(2)); got > 1e-8*load {
		t.Errorf("converged coordination: most mass restored on a slot %g, want round-off (≤ %g)", got, 1e-8*load)
	}
}
