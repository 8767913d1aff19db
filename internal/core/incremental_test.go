package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"edgealloc/internal/conform"
	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/solver/alm"
)

// incrTightOpts returns the incremental tier pinned to the certified
// envelope: the soundness gate runs at 1e-9 relative, so a frozen user
// survives only when its carried column is KKT-stationary to solver
// precision and the incremental decision lands in the same tolerance
// ball as the full re-solve.
func incrTightOpts() Options {
	return Options{Solver: ultraTightOpts(), Incremental: true, IncrementalTol: 1e-9}
}

// withChurn rewrites the instance's mobility so that exactly
// ⌈churn·J⌉ users re-attach at every slot t ≥ 1 (a rotating window, so
// every user eventually moves at churn > 0) and everyone else keeps the
// previous slot's attachment. churn = 0 pins every trace flat; churn = 1
// re-attaches everyone. Prices keep whatever per-slot values the base
// generator drew, so the soundness gate — not the delta detector — is
// what keeps frozen users honest under price drift.
func withChurn(in *model.Instance, churn float64, rng *rand.Rand) {
	movers := int(math.Ceil(churn * float64(in.J)))
	for t := 1; t < in.T; t++ {
		copy(in.Attach[t], in.Attach[t-1])
		for m := 0; m < movers; m++ {
			j := ((t-1)*movers + m) % in.J
			in.Attach[t][j] = rng.Intn(in.I)
		}
	}
}

// flattenPrices pins every slot's operation prices (and access delays)
// to slot 0's, removing all per-slot drift: with churn 0 the program
// becomes slot-stationary and the carried decision converges to its
// regularized fixed point.
func flattenPrices(in *model.Instance) {
	for t := 1; t < in.T; t++ {
		copy(in.OpPrice[t], in.OpPrice[0])
		copy(in.AccessDelay[t], in.AccessDelay[0])
	}
}

// TestIncrementalMatchesFullAcrossChurn is the certified-equality
// property of the incremental tier: at every churn rate — including the
// 0% edge where everything freezes and the 100% edge where nothing does
// — the slot-coupled incremental decision must match the full solve's
// P2 cost to 1e-8 relative. Prices re-draw every slot, so at low churn
// the gate must re-admit whoever the drift actually moved.
func TestIncrementalMatchesFullAcrossChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	for _, churn := range []float64{0, 0.25, 1} {
		for trial := 0; trial < 6; trial++ {
			in := smallRandomInstance(rng)
			withChurn(in, churn, rng)
			if err := in.Validate(); err != nil {
				t.Fatal(err)
			}
			gaps := coupledPathGaps(t, in, Options{Solver: ultraTightOpts()}, incrTightOpts())
			for tt, d := range gaps {
				if d > 1e-8 {
					t.Errorf("churn=%g trial %d slot %d (I=%d J=%d): P2 rel gap %g > 1e-8",
						churn, trial, tt, in.I, in.J, d)
				}
			}
		}
	}
}

// TestIncrementalFirstSlotBitEqualsCandidatePath pins the one solve loop:
// on a slot with no committed predecessor every user is active, so the
// incremental tier runs exactly the plain candidate path's program, round
// for round — including the expansion rounds, which must resume from the
// previous round's multipliers rather than restart from zero.
func TestIncrementalFirstSlotBitEqualsCandidatePath(t *testing.T) {
	for _, seed := range []int64{3, 13, 41} {
		in, _, err := scenario.Rome(scenario.Config{Users: 12, Horizon: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, fast := range []bool{false, true} {
			plain := NewOnlineApprox(in, Options{Candidates: 3, FastMath: fast})
			incr := NewOnlineApprox(in, Options{Candidates: 3, FastMath: fast, Incremental: true})
			xp, err := plain.Step(0)
			if err != nil {
				t.Fatal(err)
			}
			xi, err := incr.Step(0)
			if err != nil {
				t.Fatal(err)
			}
			if r := plain.LastStepDiag().CandRounds; r < 2 {
				t.Fatalf("seed %d: slot 0 certified in %d round; the test needs an expansion round", seed, r)
			}
			if dp, di := plain.LastStepDiag(), incr.LastStepDiag(); dp.CandRounds != di.CandRounds || dp.Inner != di.Inner {
				t.Errorf("seed %d fast=%v: %d rounds / %d inner plain vs %d / %d incremental",
					seed, fast, dp.CandRounds, dp.Inner, di.CandRounds, di.Inner)
			}
			if !allocsEqual(xp, xi) {
				t.Errorf("seed %d fast=%v: slot-0 decisions differ bitwise", seed, fast)
			}
		}
	}
}

// TestIncrementalStationaryFreezes pins the point of the tier: on a
// slot-stationary instance (0% churn, flat prices) the carried decision
// reaches its regularized fixed point within a couple of slots, after
// which the gate certifies whole slots without a single reduced solve.
// The run must still be Theorem-1 feasible and match the plain
// candidate path's total cost.
func TestIncrementalStationaryFreezes(t *testing.T) {
	rng := rand.New(rand.NewSource(829))
	in := smallRandomInstance(rng)
	in.T = 8
	for len(in.OpPrice) < in.T {
		in.OpPrice = append(in.OpPrice, append([]float64(nil), in.OpPrice[0]...))
		in.Attach = append(in.Attach, append([]int(nil), in.Attach[0]...))
		in.AccessDelay = append(in.AccessDelay, append([]float64(nil), in.AccessDelay[0]...))
	}
	withChurn(in, 0, rng)
	flattenPrices(in)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}

	incr := NewOnlineApprox(in, Options{Solver: tightOpts(), Incremental: true, IncrementalTol: 1e-3})
	sched, st := runSummed(t, incr)
	if err := in.CheckFeasible(sched, feasTol); err != nil {
		t.Fatalf("incremental schedule infeasible: %v", err)
	}
	if st.FrozenUsers == 0 {
		t.Errorf("stationary instance froze no users (run totals %+v)", st)
	}
	// Late slots must certify entirely from the carried decision: total
	// frozen user-slots should approach (T-1)·J as the fixed point locks.
	if st.FrozenUsers < in.J {
		t.Errorf("only %d frozen user-slots over %d stationary slots of %d users",
			st.FrozenUsers, in.T-1, in.J)
	}

	full := NewOnlineApprox(in, Options{Solver: tightOpts()})
	fs, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	ic := totalOf(t, in, sched)
	fc := totalOf(t, in, fs)
	if d := math.Abs(ic-fc) / (1 + math.Abs(fc)); d > 1e-3 {
		t.Errorf("total cost %g incremental vs %g full (rel %g) at gate tol 1e-3", ic, fc, d)
	}
}

// TestIncrementalForcedReadmission pins the gate itself: on the
// expansion instance the user never changes attachment — the delta
// detector sees nothing — but slot 1 spikes the attached cloud's price
// so hard that the true optimum migrates. Only a gate violation can
// re-admit the frozen user, and the result must still match the dense
// solve.
func TestIncrementalForcedReadmission(t *testing.T) {
	in := expansionInstance()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	incr := NewOnlineApprox(in, Options{Solver: tightOpts(), Incremental: true, IncrementalTol: 1e-9})
	is, st := runSummed(t, incr)
	if st.ReadmittedUsers == 0 {
		t.Errorf("gate re-admitted no users; soundness path untested (run totals %+v)", st)
	}
	dense := NewOnlineApprox(in, Options{Solver: tightOpts()})
	ds, err := dense.Run()
	if err != nil {
		t.Fatal(err)
	}
	for tt := range ds {
		for k := range ds[tt].X {
			if d := math.Abs(is[tt].X[k] - ds[tt].X[k]); d > 1e-5 {
				t.Errorf("slot %d: x[%d] = %g incremental vs %g dense", tt, k, is[tt].X[k], ds[tt].X[k])
			}
		}
	}
}

// TestGateRefusesSlackColumns runs three FuzzIncrementalVsFull inputs on
// which the carried column of a frozen user over-serves its demand at slot
// 2. Complementary slackness then pins θ_j to 0, so the gate may freeze the
// column only where its support sits at g_ij ≈ 0; a gate that certified it
// at θ_j = min_i g_ij > 0 left the incremental decision's P2 objective
// above the full re-solve from the same carried decision by 0.294, 2.2e-2
// and 1.2e-2 of 1+|f| (the first is 0.416 of the full optimum's). The
// incremental run is not re-coupled: each slot is measured from its own
// previous decision.
func TestGateRefusesSlackColumns(t *testing.T) {
	for _, c := range []struct {
		seed                 int64
		nI, nJ, nT, churnPct int
	}{{235, -47, -40, 99, 51}, {20140277, 8, 8, 102, -32}, {-50, -22, -56, 87, 113}} {
		in := conform.GenInstance(conform.GenConfig{
			Seed: c.seed, I: span(c.nI, 2, 4), J: span(c.nJ, 1, 5), T: span(c.nT, 1, 3)})
		withChurn(in, float64(span(c.churnPct, 0, 100))/100, rand.New(rand.NewSource(c.seed^0x5eed)))
		gaps := coupledPathGaps(t, in, incrTightOpts(), Options{Solver: ultraTightOpts()})
		if len(gaps) < 3 {
			t.Fatalf("seed %d: %d slots, want the slot-2 solve", c.seed, len(gaps))
		}
		for tt, d := range gaps {
			if d > 1e-8 {
				t.Errorf("seed %d (I=%d J=%d) slot %d: incremental P2 objective rel gap %g > 1e-8",
					c.seed, in.I, in.J, tt, d)
			}
		}
	}
}

// TestIncrementalConformAcrossChurn closes the loop with the oracle: the
// incremental path's full runs at every churn rate must pass the
// conformance check, competitive-ratio certificate included — the
// assembled [θ | ρ | ν] duals of gated slots are real dual points, not
// bookkeeping.
func TestIncrementalConformAcrossChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(857))
	for _, churn := range []float64{0, 0.5, 1} {
		in := smallRandomInstance(rng)
		withChurn(in, churn, rng)
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		alg := NewOnlineApprox(in, Options{Solver: tightOpts(), Incremental: true, IncrementalTol: 1e-9})
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
			t.Errorf("churn=%g: %v", churn, rep.Err())
		}
	}
}

// TestIncrementalWorkersByteIdentical extends the determinism contract
// to the incremental tier: the run must be bitwise-identical for any
// Solver.Workers value.
func TestIncrementalWorkersByteIdentical(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 10, Horizon: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) model.Schedule {
		alg := NewOnlineApprox(in, Options{Candidates: 3, Incremental: true,
			Solver: alm.Options{Workers: workers}})
		s, err := alg.Run()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := run(1)
	for _, w := range []int{2, 4, 7} {
		got := run(w)
		for tt := range base {
			for k := range base[tt].X {
				if got[tt].X[k] != base[tt].X[k] {
					t.Fatalf("workers=%d slot %d: x[%d] = %v != serial %v",
						w, tt, k, got[tt].X[k], base[tt].X[k])
				}
			}
		}
	}
}

// TestIncrementalShardsRefused pins the refusal of the one pair of tiers
// that does not compose: Step and RestoreState both return the error
// naming Options.Incremental and Options.Shards, and leave the algorithm
// unused.
func TestIncrementalShardsRefused(t *testing.T) {
	in := conform.GenInstance(conform.GenConfig{Seed: 3, I: 3, J: 4, T: 3})
	opts := Options{Shards: 2, Incremental: true}
	alg := NewOnlineApprox(in, opts)
	if _, err := alg.Step(0); !errors.Is(err, errIncrementalShards) {
		t.Fatalf("Step: err = %v, want %v", err, errIncrementalShards)
	}
	if _, err := alg.Run(); !errors.Is(err, errIncrementalShards) {
		t.Fatalf("Run: err = %v, want %v", err, errIncrementalShards)
	}
	st := &WarmState{Slot: 0}
	if err := NewOnlineApprox(in, opts).RestoreState(st); !errors.Is(err, errIncrementalShards) {
		t.Fatalf("RestoreState: err = %v, want %v", err, errIncrementalShards)
	}
	for _, name := range []string{"Options.Incremental", "Options.Shards"} {
		if !strings.Contains(errIncrementalShards.Error(), name) {
			t.Errorf("error %q does not name %s", errIncrementalShards, name)
		}
	}
}

// TestStepCtxCancellationIncremental extends the cancellation contract
// to the incremental tier: aborted solves must leave the warm-dual and
// frozen-set state retryable, with the eventual schedule bitwise equal
// to the uncancelled reference.
func TestStepCtxCancellationIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(447))
	in := smallRandomInstance(rng)
	withChurn(in, 0.3, rng)
	testCancellation(t, in, Options{Incremental: true, IncrementalTol: 1e-9})
}
