package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
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
				bt := beta(i, j, t)
				if v := bt - mgFacI[i]; v > cert.Feasibility.BetaBound {
					cert.Feasibility.BetaBound = v
				}
				if bt < -cert.Feasibility.Negativity {
					cert.Feasibility.Negativity = -bt
				}
				db := beta(i, j, t+1) - bt
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

// TestStreamedCertificateMatchesBatch pins the one-pass certificate over the
// decision log to the batch construction over the whole schedule, bit for
// bit, on every configuration TestGoldenScheduleDigests pins and on the
// incremental runs of logInstance.
func TestStreamedCertificateMatchesBatch(t *testing.T) {
	t.Parallel()
	golden, mixed := goldenInstance(t), logInstance(t)
	for _, tc := range []struct {
		name string
		in   *model.Instance
		opts Options
	}{
		{"default", golden, Options{}},
		{"DenseRows", golden, Options{denseRows: true}},
		{"Candidates", golden, Options{Candidates: 3}},
		{"FastMath", golden, Options{FastMath: true}},
		{"Shards", golden, Options{Shards: 2}},
		{"Shards+Candidates+FastMath", golden, Options{Shards: 2, Candidates: 3, FastMath: true}},
		{"Incremental", golden, Options{Incremental: true, IncrementalTol: 0.5}},
		{"Candidates+Incremental", golden, Options{Candidates: 3, Incremental: true, IncrementalTol: 0.5}},
		{"Shards+Incremental", golden, Options{Shards: 3, Incremental: true, IncrementalTol: 0.5,
			ShardPrimalTol: 1e-3, ShardDualTol: 0.1}},
		{"mixed log, Incremental", mixed, Options{Incremental: true, IncrementalTol: 0.5}},
		{"mixed log, Candidates+Incremental", mixed, Options{Candidates: 2, Incremental: true, IncrementalTol: 0.5}},
	} {
		alg := NewOnlineApprox(tc.in, tc.opts)
		for tt := 0; tt < tc.in.T; tt++ {
			if _, err := alg.Step(tt); err != nil {
				t.Fatalf("%s slot %d: %v", tc.name, tt, err)
			}
		}
		// Streamed first, so it cannot lean on a schedule Schedule built.
		streamed, err := alg.Certificate()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		batch, err := batchCertificate(alg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if certBits(streamed) != certBits(batch) {
			t.Errorf("%s: streamed certificate %+v, batch %+v", tc.name, *streamed, *batch)
		}
	}
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
// identity and sharded layouts and on every all-active slot, written
// columns on a slot that froze users. Schedule is also asked mid-run (the
// cache must extend, not restart) and one run is restored from a mid-run
// export, whose slots the log holds whole.
func TestScheduleMatchesStepViews(t *testing.T) {
	t.Parallel()
	in := logInstance(t)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"identity", Options{}},
		{"Candidates", Options{Candidates: 2}},
		{"Incremental", Options{Incremental: true, IncrementalTol: 0.5}},
		{"Candidates+Incremental", Options{Candidates: 2, Incremental: true, IncrementalTol: 0.5}},
		{"Shards", Options{Shards: 2}},
	} {
		for _, restoreAt := range []int{-1, 3} {
			alg := NewOnlineApprox(in, tc.opts)
			var views [][]float64
			var kinds []byte
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
			}
			// w: logged whole, c: logged as columns. The incremental runs
			// log columns on both sides of the whole slot 5, and after a
			// restore the first slot whole.
			want := "wwwwwwww"
			if tc.opts.Incremental {
				want = "wccccwcc"
				if restoreAt >= 0 {
					want = "wccwcwcc"
				}
			}
			if string(kinds) != want {
				t.Errorf("%s (restore at %d): slots logged %s, want %s", tc.name, restoreAt, kinds, want)
			}
		}
	}
}
