package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// then follows a run of each solve path through a cancelled-and-retried
// Step and a RestoreState resume: after every bind wa_i + sq_ij must be
// Instance.StaticCoeffInto's coefficient, and so must the dense grid of the
// walk, which no solve path allocates: every path reads a coefficient as
// wa_i + sq_ij.
func TestStaticCacheMatchesStaticCoeffInto(t *testing.T) {
	rng := rand.New(rand.NewSource(2401))
	paths := []Options{
		{},
		{Candidates: 2},
		{Incremental: true},
		{Candidates: 2, Incremental: true},
		{Shards: 2},
	}
	for trial := 0; trial < 20; trial++ {
		in := smallRandomInstance(rng)
		if trial%2 == 0 {
			withChurn(in, 0.3, rng)
		}
		opts := paths[trial%len(paths)]
		want := make([]float64, in.I*in.J)
		check := func(where string, o *p2Objective, tt int, dense bool) {
			t.Helper()
			in.StaticCoeffInto(tt, want)
			for k, w := range want {
				if c := o.wa[k/in.J] + o.sq[k]; math.Float64bits(c) != math.Float64bits(w) {
					t.Fatalf("trial %d %+v %s slot %d: wa + sq at %d = %v, StaticCoeffInto has %v",
						trial, opts, where, tt, k, c, w)
				}
			}
			if dense != (o.coef != nil) {
				t.Fatalf("trial %d %+v %s: dense coefficient grid present = %v, want %v",
					trial, opts, where, o.coef != nil, dense)
			}
			if k := sameBits(o.coef, want); k >= 0 {
				t.Fatalf("trial %d %+v %s slot %d: coef[%d] = %v, StaticCoeffInto has %v",
					trial, opts, where, tt, k, o.coef[k], want[k])
			}
		}
		o := newP2ObjectiveConst(in, 1, 1, false)
		o.coef = make([]float64, in.I*in.J)
		for step := 0; step < 4*in.T; step++ {
			tt := rng.Intn(in.T)
			o.bindStatic(in, tt)
			check("walk", o, tt, true)
			if step%3 == 0 {
				o.bindStatic(in, tt)
				check("rebind", o, tt, true)
			}
		}

		a := NewOnlineApprox(in, opts)
		cut := 1 + rng.Intn(in.T-1)
		for tt := 0; tt < cut; tt++ {
			if tt == cut-1 {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := a.StepCtx(ctx, tt); err == nil {
					t.Fatalf("trial %d: cancelled Step(%d) succeeded", trial, tt)
				}
				check("cancelled", a.obj, tt, false)
			}
			if _, err := a.Step(tt); err != nil {
				t.Fatal(err)
			}
			check("step", a.obj, tt, false)
		}
		b := NewOnlineApprox(in, opts)
		if err := b.RestoreState(a.ExportState()); err != nil {
			t.Fatal(err)
		}
		for tt := cut; tt < in.T; tt++ {
			if _, err := b.Step(tt); err != nil {
				t.Fatal(err)
			}
			check("restored", b.obj, tt, false)
		}
	}
}

// denseFrozenFlow is the frozen flow and frozen support as one streaming
// pass over the carried decision computes them: per cloud, the masked sum
// over every user not marked active, in ascending order, into dst, and
// those users' pairs with prev > 0 appended to supp. Four rows advance
// abreast for the reason Alloc.CloudTotalsInto gives. It is the reference
// singleState.frozenFlow's walk of the support index must reproduce.
func denseFrozenFlow(dst, prev []float64, active []bool, supp []supportPair) []supportPair {
	n := len(active)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		r0, r1, r2, r3 := prev[i*n:(i+1)*n], prev[(i+1)*n:(i+2)*n], prev[(i+2)*n:(i+3)*n], prev[(i+3)*n:(i+4)*n]
		var f0, f1, f2, f3 float64
		for j, a := range active {
			if a {
				continue
			}
			v0, v1, v2, v3 := r0[j], r1[j], r2[j], r3[j]
			f0 += v0
			f1 += v1
			f2 += v2
			f3 += v3
			if v0 > 0 {
				supp = append(supp, supportPair{int32(i), int32(j)})
			}
			if v1 > 0 {
				supp = append(supp, supportPair{int32(i + 1), int32(j)})
			}
			if v2 > 0 {
				supp = append(supp, supportPair{int32(i + 2), int32(j)})
			}
			if v3 > 0 {
				supp = append(supp, supportPair{int32(i + 3), int32(j)})
			}
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = f0, f1, f2, f3
	}
	for ; i < len(dst); i++ {
		row, f := prev[i*n:(i+1)*n], 0.0
		for j, a := range active {
			if a {
				continue
			}
			f += row[j]
			if row[j] > 0 {
				supp = append(supp, supportPair{int32(i), int32(j)})
			}
		}
		dst[i] = f
	}
	return supp
}

// sortPairs orders support pairs by cloud, then user.
func sortPairs(p []supportPair) {
	slices.SortFunc(p, func(a, b supportPair) int {
		if a.i != b.i {
			return int(a.i - b.i)
		}
		return int(a.j - b.j)
	})
}

// TestSupportIndexMatchesGrid holds the frozen-support index to the grid it
// indexes. After every committed slot of incremental runs, with and without
// candidates, an index the run keeps fresh lists exactly the positive
// entries of each column of the carried decision, and for a random activity
// mask the walk of the index gives the dense pass's frozen flow bit for bit
// and its support pairs as a set. The runs go through slots cancelled at
// their last poll, after a first round scattered into the spare grid, and
// through a RestoreState mid-run whose carried decision holds a −0.
func TestSupportIndexMatchesGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(2403))
	fresh, stale, cancelled, negZero := 0, 0, 0, 0
	check := func(where string, a *OnlineApprox) {
		t.Helper()
		in, s := a.inst, a.single
		prev := a.prev.X
		ref := newSupportIndex(in.I, in.J)
		ref.rebuild(prev)
		if s.support.fresh {
			fresh++
		} else {
			stale++
		}
		for j := 0; j < in.J; j++ {
			var want []int32
			for i := 0; i < in.I; i++ {
				if v := prev[i*in.J+j]; v > 0 {
					want = append(want, int32(i))
				} else if v == 0 && math.Signbit(v) {
					negZero++
				}
			}
			if got := ref.of(j); !slices.Equal(got, want) {
				t.Fatalf("%s: user %d rebuilt on clouds %v, the grid has %v", where, j, got, want)
			}
			if got := s.support.of(j); s.support.fresh && !slices.Equal(got, want) {
				t.Fatalf("%s: user %d indexed on clouds %v, the grid has %v", where, j, got, want)
			}
		}
		walk := &singleState{active: make([]bool, in.J), frozenTot: make([]float64, in.I), support: ref}
		for j := range walk.active {
			walk.active[j] = rng.Intn(3) == 0
		}
		walk.frozenFlow(prev)
		want := make([]float64, in.I)
		wantSupp := denseFrozenFlow(want, prev, walk.active, nil)
		if k := sameBits(walk.frozenTot, want); k >= 0 {
			t.Fatalf("%s: indexed frozen flow of cloud %d = %v, dense pass %v", where, k, walk.frozenTot[k], want[k])
		}
		sortPairs(walk.frozenSupp)
		sortPairs(wantSupp)
		if !slices.Equal(walk.frozenSupp, wantSupp) {
			t.Fatalf("%s: indexed frozen support %v, dense pass %v", where, walk.frozenSupp, wantSupp)
		}
	}
	for trial, tc := range []struct {
		name string
		opts Options
	}{
		{"incremental tight", Options{Incremental: true, IncrementalTol: 1e-9}},
		{"candidates+incremental tight", Options{Candidates: 2, Incremental: true, IncrementalTol: 1e-9}},
		{"incremental", Options{Incremental: true}},
		{"candidates+incremental", Options{Candidates: 3, Incremental: true}},
	} {
		opts := tc.opts
		in, _, err := scenario.Rome(scenario.Config{Users: 12, Horizon: 8, Seed: int64(40 + trial)})
		if err != nil {
			t.Fatal(err)
		}
		withChurn(in, 0.25, rng)
		// The reference run's last poll of each slot, and whether the slot
		// took a second round (so that its first had scattered by then).
		ref := NewOnlineApprox(in, opts)
		lastPoll, scattered := make([]int, in.T), make([]bool, in.T)
		for tt := 0; tt < in.T; tt++ {
			if _, err := ref.Step(tt); err != nil {
				t.Fatal(err)
			}
			d := ref.LastStepDiag()
			lastPoll[tt], scattered[tt] = d.Outer+d.Inner-1, d.CandRounds >= 2
		}

		cut := in.T / 2
		a := NewOnlineApprox(in, opts)
		for tt := 0; tt < cut; tt++ {
			if tt > 0 && scattered[tt] {
				if _, err := a.StepCtx(newCountdownCtx(lastPoll[tt]), tt); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s slot %d: cancel at poll %d: err = %v", tc.name, tt, lastPoll[tt], err)
				}
				cancelled++
				check(fmt.Sprintf("%s cancelled slot %d", tc.name, tt), a)
			}
			if _, err := a.Step(tt); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s slot %d", tc.name, tt), a)
		}
		st := a.ExportState()
		last := denseOf(in.I*in.J, st.Schedule[cut-1])
		k := slices.Index(last, 0)
		if k < 0 {
			t.Fatalf("%s: slot %d's decision has no zero entry to sign", tc.name, cut-1)
		}
		last[k] = math.Copysign(0, -1)
		st.Schedule[cut-1] = entries(last)
		b := NewOnlineApprox(in, opts)
		if err := b.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%s restored", tc.name), b)
		for tt := cut; tt < in.T; tt++ {
			if _, err := b.Step(tt); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s restored slot %d", tc.name, tt), b)
		}
	}
	if fresh == 0 || stale == 0 || cancelled == 0 || negZero == 0 {
		t.Errorf("%d fresh and %d stale indexes checked, %d slots cancelled after a scatter, %d −0 entries seen: a case went unexercised",
			fresh, stale, cancelled, negZero)
	}
}

// gateCase is random slot data for the gate: coefficients, a carried
// decision with one to three support pairs per column, per-cloud base
// terms, and an activity mask. Some columns have a support pair placed at
// the tolerance boundary of the column minimum — on it, one ulp inside and
// one ulp outside — and some a minimum that is a zero of either sign. Half
// the cases split every coefficient c into a random price term wa_i and
// sq_ij = c − wa_i; the other half keep wa = 0, so that wa_i + sq_ij is c
// exactly and the boundary and zero cases land where they were placed.
func gateCase(rng *rand.Rand, tol float64) (d *p2Objective, base []float64, active []bool) {
	nI, nJ := 2+rng.Intn(9), 1+rng.Intn(40)
	d = &p2Objective{nI: nI, nJ: nJ, wa: make([]float64, nI),
		sq: make([]float64, nI*nJ), prev: make([]float64, nI*nJ)}
	coef := make([]float64, nI*nJ)
	base = make([]float64, nI)
	for i := range base {
		base[i] = 2*rng.Float64() - 0.5
	}
	active = make([]bool, nJ)
	for j := 0; j < nJ; j++ {
		active[j] = rng.Intn(5) == 0
		for i := 0; i < nI; i++ {
			coef[i*nJ+j] = 4 * rng.Float64()
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
				coef[i*nJ+j] = 2 + rng.Float64() - base[i]
			}
			coef[lo*nJ+j] = 1 - base[lo]
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
			coef[hi*nJ+j] = c
			d.prev[hi*nJ+j] = 1
		case 1:
			// Zeros of both signs among the column's gradients, nothing
			// below them: gateColumn keeps the first, min the negative one.
			for i := 0; i < nI; i++ {
				coef[i*nJ+j] = -base[i] + float64(rng.Intn(2))
			}
			i := rng.Intn(nI)
			coef[i*nJ+j] = math.Copysign(0, -1) - base[i]
		}
	}
	if rng.Intn(2) == 0 {
		for i := range d.wa {
			d.wa[i] = rng.Float64() - 0.5
		}
	}
	for k, c := range coef {
		d.sq[k] = c - d.wa[k/nJ]
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
		supp := denseFrozenFlow(frozenTot, d.prev, active, nil)
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

// gateColumn is gateColumns' per-column reference: the freeze gate's KKT
// test on user j's carried column of the dense slot data, with base from
// kktBase. Every support pair must sit within tol (relative per pair) of
// the column minimum min_i g_ij, and not below −tol. It returns the
// column's embedded demand dual θ_j = max(0, min_i g_ij) and whether the
// test failed.
func (d *p2Objective) gateColumn(j int, base []float64, tol float64) (theta float64, violated bool) {
	aMin := math.Inf(1)
	for i := 0; i < d.nI; i++ {
		if g := d.wa[i] + d.sq[i*d.nJ+j] + base[i]; g < aMin {
			aMin = g
		}
	}
	for i := 0; i < d.nI; i++ {
		k := i*d.nJ + j
		if d.prev[k] <= 0 {
			continue
		}
		c := d.wa[i] + d.sq[k]
		g := c + base[i]
		sc := tol * (1 + math.Abs(c))
		if g-aMin > sc || g < -sc {
			return 0, true
		}
	}
	if aMin > 0 {
		return aMin, false
	}
	return 0, false
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
	sharded.Shards, sharded.ShardMaxIters, sharded.Incremental = 2, 2, false
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
