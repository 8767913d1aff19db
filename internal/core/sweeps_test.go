package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/solver/alm"
)

// The incremental tier's per-slot sweeps — the static coefficients, the
// frozen flow, the freeze gate — each replaced a routine that is still in
// the tree as its reference. These tests hold the replacement to the
// reference bit for bit; the touched-column repair and the candidate
// builder have theirs in internal/model.

// sameBits reports the first index at which a and b differ as bit patterns,
// or -1.
func sameBits(a, b []float64) int {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return k
		}
	}
	return -1
}

// TestStaticCacheMatchesStaticCoeffInto walks an objective through slots in
// an order no run takes — forwards, a slot bound twice, backwards — and
// then follows a run through a cancelled-and-retried Step and a
// RestoreState resume: after every bind the coefficients must be
// Instance.StaticCoeffInto's.
func TestStaticCacheMatchesStaticCoeffInto(t *testing.T) {
	rng := rand.New(rand.NewSource(2401))
	for trial := 0; trial < 20; trial++ {
		in := smallRandomInstance(rng)
		if trial%2 == 0 {
			withChurn(in, 0.3, rng)
		}
		want := make([]float64, in.I*in.J)
		check := func(where string, o *p2Objective, tt int) {
			t.Helper()
			in.StaticCoeffInto(tt, want)
			if k := sameBits(o.coef, want); k >= 0 {
				t.Fatalf("trial %d %s slot %d: coef[%d] = %v, StaticCoeffInto has %v",
					trial, where, tt, k, o.coef[k], want[k])
			}
		}
		o := newP2ObjectiveConst(in, 1, 1, false)
		for step := 0; step < 4*in.T; step++ {
			tt := rng.Intn(in.T)
			o.bindStatic(in, tt)
			check("walk", o, tt)
			if step%3 == 0 {
				o.bindStatic(in, tt)
				check("rebind", o, tt)
			}
		}

		opts := Options{Candidates: 2, Incremental: true}
		a := NewOnlineApprox(in, opts)
		cut := 1 + rng.Intn(in.T-1)
		for tt := 0; tt < cut; tt++ {
			if tt == cut-1 {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := a.StepCtx(ctx, tt); err == nil {
					t.Fatalf("trial %d: cancelled Step(%d) succeeded", trial, tt)
				}
				check("cancelled", a.obj, tt)
			}
			if _, err := a.Step(tt); err != nil {
				t.Fatal(err)
			}
			check("step", a.obj, tt)
		}
		b := NewOnlineApprox(in, opts)
		if err := b.RestoreState(a.ExportState()); err != nil {
			t.Fatal(err)
		}
		for tt := cut; tt < in.T; tt++ {
			if _, err := b.Step(tt); err != nil {
				t.Fatal(err)
			}
			check("restored", b.obj, tt)
		}
	}
}

// gateCase is random slot data for the gate: coefficients, a carried
// decision with one to three support pairs per column, per-cloud base
// terms, and an activity mask. Some columns have a support pair placed at
// the tolerance boundary of the column minimum — on it, one ulp inside and
// one ulp outside — and some a minimum that is a zero of either sign.
func gateCase(rng *rand.Rand, tol float64) (d *p2Objective, base []float64, active []bool) {
	nI, nJ := 2+rng.Intn(9), 1+rng.Intn(40)
	d = &p2Objective{nI: nI, nJ: nJ,
		coef: make([]float64, nI*nJ), prev: make([]float64, nI*nJ)}
	base = make([]float64, nI)
	for i := range base {
		base[i] = 2*rng.Float64() - 0.5
	}
	active = make([]bool, nJ)
	for j := 0; j < nJ; j++ {
		active[j] = rng.Intn(5) == 0
		for i := 0; i < nI; i++ {
			d.coef[i*nJ+j] = 4 * rng.Float64()
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			d.prev[rng.Intn(nI)*nJ+j] = 0.1 + rng.Float64()
		}
		switch rng.Intn(4) {
		case 0:
			// A support pair at the boundary: the column minimum is 1, and
			// the pair's g − 1 is tol·(1+|c|) moved by up to an ulp either
			// way.
			lo, hi := rng.Intn(nI), rng.Intn(nI)
			if lo == hi {
				break
			}
			for i := 0; i < nI; i++ {
				d.coef[i*nJ+j] = 2 + rng.Float64() - base[i]
			}
			d.coef[lo*nJ+j] = 1 - base[lo]
			c := 1 - base[hi]
			for n := 0; n < 60; n++ {
				c = 1 - base[hi] + tol*(1+math.Abs(c))
			}
			switch rng.Intn(3) {
			case 0:
				c = math.Nextafter(c, math.Inf(1))
			case 1:
				c = math.Nextafter(c, math.Inf(-1))
			}
			d.coef[hi*nJ+j] = c
			d.prev[hi*nJ+j] = 1
		case 1:
			// Zeros of both signs among the column's gradients, nothing
			// below them: gateColumn keeps the first, min the negative one.
			for i := 0; i < nI; i++ {
				d.coef[i*nJ+j] = -base[i] + float64(rng.Intn(2))
			}
			i := rng.Intn(nI)
			d.coef[i*nJ+j] = math.Copysign(0, -1) - base[i]
		}
	}
	return d, base, active
}

// TestGateColumnsMatchesGateColumn holds the streamed gate to the
// per-column reference: for every frozen user the same verdict and the same
// bits of θ, and the same frozen flow as the plain masked sum.
func TestGateColumnsMatchesGateColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(2402))
	violations, certified := 0, 0
	for trial := 0; trial < 400; trial++ {
		tol := []float64{1e-9, 1e-3, 0.25}[trial%3]
		d, base, active := gateCase(rng, tol)
		nI, nJ := d.nI, d.nJ

		frozenTot := make([]float64, nI)
		supp := frozenFlow(frozenTot, d.prev, active, nil)
		for i := 0; i < nI; i++ {
			f := 0.0
			for j := 0; j < nJ; j++ {
				if !active[j] {
					f += d.prev[i*nJ+j]
				}
			}
			if math.Float64bits(f) != math.Float64bits(frozenTot[i]) {
				t.Fatalf("trial %d: frozen flow of cloud %d = %v, masked sum %v", trial, i, frozenTot[i], f)
			}
		}

		colMin, viol := make([]float64, nJ), make([]bool, nJ)
		// Stale scratch from an earlier round must not leak.
		for j := range viol {
			viol[j], colMin[j] = true, -1e300
		}
		d.gateColumns(colMin, viol, supp, base, tol)
		for j := 0; j < nJ; j++ {
			if active[j] {
				continue
			}
			wantTheta, wantViol := d.gateColumn(j, base, tol)
			if viol[j] != wantViol {
				t.Fatalf("trial %d user %d: streamed gate violated=%v, gateColumn %v", trial, j, viol[j], wantViol)
			}
			if wantViol {
				violations++
				continue
			}
			certified++
			theta := math.Max(0, colMin[j])
			if math.Float64bits(theta) != math.Float64bits(wantTheta) {
				t.Fatalf("trial %d user %d: θ = %v, gateColumn %v", trial, j, theta, wantTheta)
			}
		}
	}
	if violations < 100 || certified < 100 {
		t.Errorf("%d violations and %d certified columns: one side of the gate went unexercised", violations, certified)
	}
}

// greedyInit gives the instance a pre-horizon placement — every user whole
// on its slot-0 cloud while capacity lasts, then on the clouds with room in
// index order — so a large instance's slot 0 starts from a feasible point
// instead of solving a transportation problem for one.
func greedyInit(in *model.Instance) {
	free := append([]float64(nil), in.Capacity...)
	init := model.NewAlloc(in.I, in.J)
	for j, at := range in.Attach[0] {
		need := in.Workload[j]
		for i := at; need > 0; i = (i + 1) % in.I {
			amt := math.Min(need, free[i])
			init.X[i*in.J+j] += amt
			free[i] -= amt
			need -= amt
		}
	}
	in.Init = &init
}

// TestStepPhasesSumToWallTime is the ROADMAP's decomposition requirement
// on the slot advance: over the warm slots of a J = 2000 low-churn run the
// bind, solve and commit phases of StepDiag account for the wall time
// measured around Step to within 5%, on the single program and on the
// sharded path, and the certify share lies inside the solve. The budgets
// are a few iterations: the phases are timed, not the answers.
func TestStepPhasesSumToWallTime(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 2000, Horizon: 6, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	withChurn(in, 0.01, rand.New(rand.NewSource(32)))
	greedyInit(in)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Solver:     alm.Options{MaxOuter: 3, InnerIters: 40, FeasTol: 1e-7, DualTol: 5e-2, ObjTol: 1e-2, Penalty: 2},
		Candidates: 3, CandidateTol: 1, Incremental: true, IncrementalTol: 1,
	}
	sharded := opts
	sharded.Shards, sharded.ShardMaxIters = 2, 2
	for _, tc := range []struct {
		name string
		opts Options
	}{{"single", opts}, {"sharded", sharded}} {
		t.Run(tc.name, func(t *testing.T) {
			alg := NewOnlineApprox(in, tc.opts)
			if _, err := alg.Step(0); err != nil {
				t.Fatal(err)
			}
			var wall, phases float64
			for tt := 1; tt < in.T; tt++ {
				start := time.Now()
				if _, err := alg.Step(tt); err != nil {
					t.Fatal(err)
				}
				wall += time.Since(start).Seconds()
				d := alg.LastStepDiag()
				if d.BindSeconds <= 0 || d.Seconds <= 0 || d.CommitSeconds <= 0 {
					t.Fatalf("slot %d: phase missing from %+v", tt, d)
				}
				if d.CertifySeconds <= 0 || d.CertifySeconds > d.Seconds {
					t.Fatalf("slot %d: certify %g s outside the solve's %g s", tt, d.CertifySeconds, d.Seconds)
				}
				phases += d.BindSeconds + d.Seconds + d.CommitSeconds
			}
			if gap := math.Abs(wall-phases) / wall; gap > 0.05 {
				t.Errorf("bind + solve + commit = %.3f ms of %.3f ms wall (%.1f%% unaccounted)",
					1e3*phases, 1e3*wall, 100*gap)
			}
		})
	}
}
