package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"edgealloc/internal/conform"
	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/solver/alm"
)

// batchCertificate is Certificate built the direct way, over the whole
// schedule: every slot's θ and ν first, the feasibility residuals after.
// It is the reference the one-pass construction is pinned to, bit for bit.
func batchCertificate(o *OnlineApprox) (*Certificate, error) {
	in := o.inst
	if o.slot != in.T {
		return nil, ErrIncompleteRun
	}
	eps1, eps2 := o.opts.Epsilon1, o.opts.Epsilon2
	sched := o.Schedule()

	cert := &Certificate{SigmaWeighted: in.WMg * in.Sigma()}
	for t := 0; t < in.T; t++ {
		for j := 0; j < in.J; j++ {
			cert.AccessConstant += in.WSq * in.AccessDelay[t][j]
		}
	}

	allocs := make([]model.Alloc, in.T+1)
	allocs[0] = in.InitialAlloc()
	totals := make([][]float64, in.T+1)
	totals[0] = allocs[0].CloudTotals()
	for t := 0; t < in.T; t++ {
		allocs[t+1] = sched[t]
		totals[t+1] = sched[t].CloudTotals()
	}

	rcFac := make([]float64, in.I)
	mgFacI := make([]float64, in.I)
	for i := 0; i < in.I; i++ {
		rcFac[i] = in.WRc * in.ReconfPrice[i] / math.Log1p(in.Capacity[i]/eps1)
		mgFacI[i] = in.WMg * (in.MigOutPrice[i] + in.MigInPrice[i])
	}
	tau := make([]float64, in.J)
	for j := 0; j < in.J; j++ {
		tau[j] = math.Log1p(in.Workload[j] / eps2)
	}

	alpha := func(i, t int) float64 {
		return rcFac[i] * math.Log((in.Capacity[i]+eps1)/(totals[t-1][i]+eps1))
	}
	beta := func(i, j, t int) float64 {
		return mgFacI[i] / tau[j] *
			math.Log((in.Workload[j]+eps2)/(allocs[t-1].At(i, j)+eps2))
	}

	thetas := make([][]float64, in.T)
	nus := make([][]float64, in.T)
	g := make([]float64, in.I*in.J)
	for t := 1; t <= in.T; t++ {
		coef := in.StaticCoeff(t - 1)
		nu := make([]float64, in.I)
		for i := 0; i < in.I; i++ {
			rcln := rcFac[i] * math.Log((totals[t][i]+eps1)/(totals[t-1][i]+eps1))
			minRow := math.Inf(1)
			for j := 0; j < in.J; j++ {
				mgln := mgFacI[i] / tau[j] *
					math.Log((allocs[t].At(i, j)+eps2)/(allocs[t-1].At(i, j)+eps2))
				if wl := in.Workload[j] + eps2; allocs[t].At(i, j)+eps2 > wl || allocs[t-1].At(i, j)+eps2 > wl {
					mgln = max(beta(i, j, t), 0) - max(beta(i, j, t+1), 0)
				}
				gij := coef[i*in.J+j] + rcln + mgln
				g[i*in.J+j] = gij
				if gij < minRow {
					minRow = gij
				}
			}
			if minRow < 0 {
				nu[i] = -minRow
				cert.D -= in.Capacity[i] * nu[i]
				cert.NuCharge += in.Capacity[i] * nu[i]
			}
		}
		theta := make([]float64, in.J)
		for j := 0; j < in.J; j++ {
			m := math.Inf(1)
			for i := 0; i < in.I; i++ {
				if v := g[i*in.J+j] + nu[i]; v < m {
					m = v
				}
			}
			theta[j] = m
			cert.D += in.Workload[j] * theta[j]
		}
		thetas[t-1] = theta
		nus[t-1] = nu
	}

	for t := 1; t <= in.T; t++ {
		coef := in.StaticCoeff(t - 1)
		for i := 0; i < in.I; i++ {
			a := alpha(i, t)
			if v := a - in.WRc*in.ReconfPrice[i]; v > cert.Feasibility.AlphaBound {
				cert.Feasibility.AlphaBound = v
			}
			if a < -cert.Feasibility.Negativity {
				cert.Feasibility.Negativity = -a
			}
			da := alpha(i, t+1) - a
			for j := 0; j < in.J; j++ {
				bt := max(beta(i, j, t), 0)
				if v := bt - mgFacI[i]; v > cert.Feasibility.BetaBound {
					cert.Feasibility.BetaBound = v
				}
				db := max(beta(i, j, t+1), 0) - bt
				lhs := -coef[i*in.J+j] + da + db + thetas[t-1][j] - nus[t-1][i]
				if lhs > cert.Feasibility.DualRow {
					cert.Feasibility.DualRow = lhs
				}
			}
		}
	}
	return cert, nil
}

// certBits lists a certificate's numbers as bit patterns.
func certBits(c *Certificate) [8]uint64 {
	f := c.Feasibility
	var b [8]uint64
	for k, v := range []float64{c.D, c.SigmaWeighted, c.AccessConstant, c.NuCharge,
		f.DualRow, f.AlphaBound, f.BetaBound, f.Negativity} {
		b[k] = math.Float64bits(v)
	}
	return b
}

// logInstance is a 10-user Rome run whose incremental log mixes its two
// kinds of record in every order: slots that freeze users are logged as
// columns, and at slot 5 every user re-attaches, so that slot is logged
// whole between column records.
func logInstance(t *testing.T) *model.Instance {
	t.Helper()
	in, _, err := scenario.Rome(scenario.Config{Users: 10, Horizon: 8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	withChurn(in, 0.2, rand.New(rand.NewSource(31)))
	for tt := 5; tt < in.T; tt++ {
		for j, a := range in.Attach[tt] {
			in.Attach[tt][j] = (a + 1) % in.I
		}
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

// runRestoring runs alg to the horizon, restoring it from its own export
// before slot restoreAt (none if out of range), and returns the finished
// run.
func runRestoring(alg *OnlineApprox, restoreAt int) (*OnlineApprox, error) {
	in := alg.inst
	for tt := 0; tt < in.T; tt++ {
		if tt == restoreAt {
			st := alg.ExportState()
			alg = NewOnlineApprox(in, alg.opts)
			if err := alg.RestoreState(st); err != nil {
				return nil, fmt.Errorf("restore at %d: %w", tt, err)
			}
		}
		if _, err := alg.Step(tt); err != nil {
			return nil, err
		}
	}
	return alg, nil
}

// streamedMatchesBatch requires the certificate of the finished run alg to
// equal batchCertificate's bit for bit, and returns it.
func streamedMatchesBatch(t *testing.T, name string, alg *OnlineApprox) *Certificate {
	t.Helper()
	// Streamed first, so it cannot lean on a schedule Schedule built.
	streamed, err := alg.Certificate()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	batch, err := batchCertificate(alg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if certBits(streamed) != certBits(batch) {
		t.Errorf("%s: streamed certificate %+v, batch %+v", name, *streamed, *batch)
	}
	return streamed
}

// TestStreamedCertificateMatchesBatch pins the one-pass certificate over the
// decision log to the batch construction over the whole schedule, bit for
// bit, on every configuration TestGoldenScheduleDigests pins, on the
// incremental runs of logInstance, after a restore, and on the corners its
// shortcuts must get right: users with τ_j = 0 (zero workload, or one that
// underflows against ε₂), whose pairs' factors are infinite and make the
// certificate non-finite, extreme ε, capacity-binding slots (ν ≠ 0) and
// over-provisioned pairs (x_ij > λ_j, where β < 0 and the certificate
// builds on β̃ = max(β, 0), so Negativity stays zero).
func TestStreamedCertificateMatchesBatch(t *testing.T) {
	t.Parallel()
	golden, mixed := goldenInstance(t), logInstance(t)
	// A user of zero workload: invalid for Validate, but nothing on the
	// path from Step to the certificate asks.
	zeroUser := *golden
	zeroUser.Workload = slices.Clone(golden.Workload)
	zeroUser.Workload[3] = 0
	binding := conform.GenInstance(conform.GenConfig{Seed: 56, I: 6, J: 3, T: 2, Tight: true})
	overProvisioned := conform.GenInstance(conform.GenConfig{Seed: -74, I: 3, J: 4, T: -61})
	incr := Options{Incremental: true, IncrementalTol: 0.5}
	for _, tc := range []struct {
		name      string
		in        *model.Instance
		opts      Options
		restoreAt int
		check     func(*Certificate) bool // the corner the case is there for
	}{
		{"default", golden, Options{}, -1, nil},
		{"Candidates", golden, Options{Candidates: 3}, -1, nil},
		{"FastMath", golden, Options{FastMath: true}, -1, nil},
		{"Shards", golden, Options{Shards: 2}, -1, nil},
		{"Shards+Candidates+FastMath", golden, Options{Shards: 2, Candidates: 3, FastMath: true}, -1, nil},
		{"Incremental", golden, incr, -1, nil},
		{"Candidates+Incremental", golden, Options{Candidates: 3, Incremental: true, IncrementalTol: 0.5}, -1, nil},
		{"mixed log, Incremental", mixed, incr, -1, nil},
		{"mixed log, Candidates+Incremental", mixed, Options{Candidates: 2, Incremental: true, IncrementalTol: 0.5}, -1, nil},
		{"restore at 2, default", golden, Options{}, 2, nil},
		{"restore at 3, mixed log, Incremental", mixed, incr, 3, nil},
		{"zero-workload user", &zeroUser, Options{}, -1, func(c *Certificate) bool { return math.IsNaN(c.D) }},
		{"zero-workload user, Incremental", &zeroUser, incr, -1, func(c *Certificate) bool { return math.IsNaN(c.D) }},
		{"eps=1e6", golden, Options{Epsilon1: 1e6, Epsilon2: 1e6}, -1, nil},
		{"eps=1e-6", golden, Options{Epsilon1: 1e-6, Epsilon2: 1e-6}, -1, nil},
		{"eps=1e-6, Incremental", mixed, Options{Epsilon1: 1e-6, Epsilon2: 1e-6, Incremental: true, IncrementalTol: 0.5}, -1, nil},
		{"capacity-binding", binding, Options{}, -1, func(c *Certificate) bool { return c.NuCharge > 0 }},
		{"FuzzOnlineStep (−74, 3, 4, −61, false, false)", overProvisioned, Options{Solver: tightOpts()}, -1,
			func(c *Certificate) bool { return c.Feasibility.Negativity == 0 && c.Feasibility.Max() < 1e-12 }},
	} {
		alg, err := runRestoring(NewOnlineApprox(tc.in, tc.opts), tc.restoreAt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cert := streamedMatchesBatch(t, tc.name, alg)
		if tc.check != nil && !tc.check(cert) {
			t.Errorf("%s: the certificate %+v misses the corner the case is for", tc.name, *cert)
		}
	}

	// τ_j = 0 beside a finite static coefficient — λ_j = 1e-300 under
	// ε₂ = 1e30, so λ_j/ε₂ underflows — with the user's column held at zero
	// from the pre-horizon state on, restored whole: none of its pairs ever
	// moves, so only the product of their infinite factor with a zero log
	// makes its g NaN and D non-finite; a pair that skipped the product
	// would leave D finite. (At λ_j = 0 the static coefficient is already
	// infinite.)
	if golden.Init != nil {
		t.Fatal("the held column assumes a zero pre-horizon state")
	}
	ran, err := runRestoring(NewOnlineApprox(golden, Options{}), -1)
	if err != nil {
		t.Fatal(err)
	}
	st := ran.ExportState()
	for t, row := range st.Schedule {
		x := denseOf(golden.I*golden.J, row)
		for i := 0; i < golden.I; i++ {
			x[i*golden.J+3] = 0
		}
		st.Schedule[t] = entries(x)
	}
	tinyUser := zeroUser
	tinyUser.Workload = slices.Clone(golden.Workload)
	tinyUser.Workload[3] = 1e-300
	held := NewOnlineApprox(&tinyUser, Options{Epsilon1: 1e30, Epsilon2: 1e30})
	if err := held.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if cert := streamedMatchesBatch(t, "τ_j = 0, held at zero", held); !math.IsNaN(cert.D) && !math.IsInf(cert.D, 0) {
		t.Errorf("τ_j = 0, held at zero: D = %v, want it non-finite", cert.D)
	}
}

// FuzzCertificateMatchesBatch is TestStreamedCertificateMatchesBatch over
// fuzzed instances: a tier combination (bits of tier: Candidates,
// Incremental, FastMath, Shards; Shards drops Incremental, which it does
// not compose with), ε₁ = ε₂ = 10^k for k in [−6, 6], a
// restore before slot restoreAt, and, for zeroUser ≥ 0, one user of zero
// workload. A run that user makes the solver refuse is skipped; every
// finished run must certify as the batch construction does, bit for bit.
func FuzzCertificateMatchesBatch(f *testing.F) {
	f.Add(int64(1), 3, 4, 3, false, uint8(0), 0, -1, -1)
	f.Add(int64(-74), 3, 4, -61, false, uint8(0), 0, -1, -1) // over-provisioned: β < 0, clamped
	f.Add(int64(56), 6, 3, 2, true, uint8(0), 0, -1, -1)     // capacity binds: ν ≠ 0
	f.Add(int64(7), 4, 8, 5, false, uint8(3), 0, 2, -1)      // Candidates+Incremental, restored
	f.Add(int64(20140212), 5, 6, 4, true, uint8(12), 6, -1, -1)
	f.Add(int64(13), 3, 5, 4, false, uint8(2), -6, 1, -1)
	f.Add(int64(31), 2, 6, 3, false, uint8(1), 0, -1, 2) // τ_j = 0
	f.Fuzz(func(t *testing.T, seed int64, nI, nJ, nT int, tight bool, tier uint8, epsExp, restoreAt, zeroUser int) {
		in := conform.GenInstance(conform.GenConfig{Seed: seed, I: nI, J: nJ, T: nT, Tight: tight})
		if zeroUser >= 0 {
			in.Workload[zeroUser%in.J] = 0
		}
		eps := math.Pow(10, float64(span(epsExp, -6, 6)))
		// A small budget: the target is after the certificate's bits, and a
		// solve that stops short leaves a schedule as good for that as any.
		opts := Options{Epsilon1: eps, Epsilon2: eps, FastMath: tier&4 != 0,
			Solver: alm.Options{MaxOuter: 6, InnerIters: 100}}
		if tier&1 != 0 {
			opts.Candidates = 2
		}
		if tier&2 != 0 && tier&8 == 0 {
			opts.Incremental, opts.IncrementalTol = true, 0.5
		}
		if tier&8 != 0 {
			opts.Shards, opts.ShardMaxIters = 2, 6
		}
		alg, err := runRestoring(NewOnlineApprox(in, opts), restoreAt)
		if err != nil {
			if zeroUser >= 0 {
				t.Skip(err)
			}
			t.Fatal(err)
		}
		streamedMatchesBatch(t, "fuzzed run", alg)
	})
}

// TestTransitionViews requires Transition's two views to be, bit for bit,
// the slots t−1 and t of the schedule the log materialises — the
// pre-horizon allocation before slot 0 — after every successful Step, right
// after RestoreState, and, for cur, after cancelled attempts at the next
// slot, on every path that logs or assembles its decision differently.
func TestTransitionViews(t *testing.T) {
	t.Parallel()
	in := logInstance(t)
	same := func(a, b model.Alloc) bool {
		if len(a.X) != len(b.X) || a.I != b.I || a.J != b.J {
			return false
		}
		for k, v := range a.X {
			if math.Float64bits(v) != math.Float64bits(b.X[k]) {
				return false
			}
		}
		return true
	}
	check := func(name string, alg *OnlineApprox, at string) {
		t.Helper()
		prev, cur := alg.Transition()
		sched := alg.Schedule()
		n := len(sched)
		want := in.InitialAlloc()
		if n > 1 {
			want = sched[n-2]
		}
		if !same(prev, want) {
			t.Fatalf("%s %s: prev is not slot %d of the schedule", name, at, n-2)
		}
		if !same(cur, sched[n-1]) {
			t.Fatalf("%s %s: cur is not slot %d of the schedule", name, at, n-1)
		}
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"dense", Options{}},
		{"Candidates", Options{Candidates: 2}},
		{"Incremental", Options{Incremental: true, IncrementalTol: 0.5}},
		{"Candidates+Incremental", Options{Candidates: 2, Incremental: true, IncrementalTol: 0.5}},
		{"Shards", Options{Shards: 2}},
	} {
		for _, restoreAt := range []int{-1, 1, 3} {
			alg := NewOnlineApprox(in, tc.opts)
			for tt := 0; tt < in.T; tt++ {
				if tt == restoreAt {
					st := alg.ExportState()
					alg = NewOnlineApprox(in, tc.opts)
					if err := alg.RestoreState(st); err != nil {
						t.Fatalf("%s: restore at %d: %v", tc.name, tt, err)
					}
					check(tc.name, alg, fmt.Sprintf("restored at %d", tt))
				}
				committed := false
				if tt > 0 {
					_, cur := alg.Transition()
					kept := cur.Clone()
					for _, polls := range []int{0, 5, 40} {
						if _, err := alg.StepCtx(newCountdownCtx(polls), tt); err == nil {
							committed = true // the slot needed fewer polls
							break
						}
						if _, cur := alg.Transition(); !same(cur, kept) {
							t.Fatalf("%s: a cancelled slot %d changed cur", tc.name, tt)
						}
					}
				}
				if !committed {
					if _, err := alg.Step(tt); err != nil {
						t.Fatalf("%s slot %d: %v", tc.name, tt, err)
					}
				}
				check(tc.name, alg, fmt.Sprintf("after slot %d (restore at %d)", tt, restoreAt))
			}
		}
	}
}

// TestScheduleMatchesStepViews requires the schedule the decision log
// materialises to be, bit for bit, a copy taken of every decision Step
// returned, on every path that logs differently: whole grids on the
// sharded path and on every all-active slot, written
// columns on a slot that froze users. Schedule is also asked mid-run, one
// run is restored from a mid-run export, whose restored slots the log
// holds whole, and a Decisions view taken mid-run must walk the same
// grids after the run has gone on. A grid logged whole is handed out as
// it is, not copied.
func TestScheduleMatchesStepViews(t *testing.T) {
	t.Parallel()
	in := logInstance(t)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"Candidates", Options{Candidates: 2}},
		{"Incremental", Options{Incremental: true, IncrementalTol: 0.5}},
		{"Candidates+Incremental", Options{Candidates: 2, Incremental: true, IncrementalTol: 0.5}},
		{"Shards", Options{Shards: 2}},
	} {
		for _, restoreAt := range []int{-1, 3} {
			alg := NewOnlineApprox(in, tc.opts)
			var views [][]float64
			var kinds []byte
			var view Decisions
			for tt := 0; tt < in.T; tt++ {
				if tt == restoreAt {
					st := alg.ExportState()
					alg = NewOnlineApprox(in, tc.opts)
					if err := alg.RestoreState(st); err != nil {
						t.Fatalf("%s: restore at %d: %v", tc.name, tt, err)
					}
				}
				x, err := alg.Step(tt)
				if err != nil {
					t.Fatalf("%s slot %d: %v", tc.name, tt, err)
				}
				views = append(views, append([]float64(nil), x.X...))
				kind := byte('w')
				if alg.log[tt].cols != nil {
					kind = 'c'
				}
				kinds = append(kinds, kind)
				if tt == 2 || tt == restoreAt+1 {
					alg.Schedule()
				}
				if tt == 3 {
					view = alg.Decisions()
				}
			}
			sched := alg.Schedule()
			if len(sched) != in.T {
				t.Fatalf("%s: schedule has %d slots, want %d", tc.name, len(sched), in.T)
			}
			for tt, x := range sched {
				for k, v := range x.X {
					if math.Float64bits(v) != math.Float64bits(views[tt][k]) {
						t.Fatalf("%s (restore at %d): slot %d entry %d is %v in the schedule, %v in Step's view",
							tc.name, restoreAt, tt, k, v, views[tt][k])
					}
				}
				if alg.log[tt].cols == nil && &x.X[0] != &alg.log[tt].vals[0] {
					t.Fatalf("%s: slot %d, logged whole, was copied", tc.name, tt)
				}
			}
			walked := 0
			view.Walk(func(tt int, x model.Alloc) bool {
				for k, v := range x.X {
					if math.Float64bits(v) != math.Float64bits(views[tt][k]) {
						t.Fatalf("%s (restore at %d): slot %d entry %d is %v in the mid-run view, %v in Step's",
							tc.name, restoreAt, tt, k, v, views[tt][k])
					}
				}
				walked++
				return true
			})
			if view.Len() != 4 || walked != 4 {
				t.Errorf("%s: the mid-run view holds %d slots and walks %d, want 4", tc.name, view.Len(), walked)
			}
			// w: logged whole, c: logged as columns. The incremental runs
			// log columns on both sides of the whole slot 5, restored or
			// not: a restored run carries its last slot.
			want := "wwwwwwww"
			if tc.opts.Incremental {
				want = "wccccwcc"
			}
			if string(kinds) != want {
				t.Errorf("%s (restore at %d): slots logged %s, want %s", tc.name, restoreAt, kinds, want)
			}
		}
	}
}
