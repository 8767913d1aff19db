package core

import (
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/solver/shardrpc"
	"edgealloc/internal/telemetry"
)

// TestP2CurvatureMatchesGradientDifferences checks p2Objective.Curv — the
// diagonal-plus-cloud-rank-one Hessian the Newton inner solve factors —
// against central differences of the objective's own gradient, column by
// column, on the three bindings of the total term (dense layout with the
// entropy total, ragged layout with frozen flow totOff, consensus target)
// and on both evaluation tiers, to 1e-6 relative.
func TestP2CurvatureMatchesGradientDifferences(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 5, Horizon: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	prev := model.NewAlloc(in.I, in.J)
	for k := range prev.X {
		if rng.Intn(3) > 0 {
			prev.X[k] = rng.Float64()
		}
	}
	randoms := func(n int) []float64 {
		v := make([]float64, n)
		for k := range v {
			v[k] = 0.05 + rng.Float64()
		}
		return v
	}
	for _, fast := range []bool{false, true} {
		dense := newP2ObjectiveConst(in, 0.7, 1.3, fast)
		dense.coef = make([]float64, in.I*in.J)
		dense.bind(in, 1, prev)
		dense.prepare()

		// A ragged layout keeping about half the pairs, every cloud nonempty.
		b := model.NewCandidateBuilder(in.I, in.J)
		for i := 0; i < in.I; i++ {
			b.Add(i, rng.Intn(in.J))
			for j := 0; j < in.J; j++ {
				if rng.Intn(2) == 0 {
					b.Add(i, j)
				}
			}
		}
		var cs model.CandidateSet
		b.Build(&cs)
		ragged := func() *p2Objective {
			var p p2Program
			p.obj = newPackedObjective(in.I, 0.7, 1.3, fast)
			p.obj.rcFac, p.obj.prevTot = dense.rcFac, dense.prevTot
			p.gather(dense, &cs, 0, prev.X)
			return &p.obj
		}
		frozen := ragged()
		frozen.totOff = randoms(in.I)
		consensus := ragged()
		consensus.rho, consensus.target = 3.5, randoms(in.I)

		for _, tc := range []struct {
			name string
			obj  *p2Objective
		}{{"dense", dense}, {"ragged+totOff", frozen}, {"consensus", consensus}} {
			o := tc.obj
			n := o.rowPtr[o.nI]
			cloudOf := make([]int, n)
			for i := 0; i < o.nI; i++ {
				for k := o.rowPtr[i]; k < o.rowPtr[i+1]; k++ {
					cloudOf[k] = i
				}
			}
			x := randoms(n)
			diag, cloud := make([]float64, n), make([]float64, o.nI)
			o.Curv(x, diag, cloud)
			gp, gm := make([]float64, n), make([]float64, n)
			const h = 1e-4
			for k := 0; k < n; k++ {
				orig := x[k]
				x[k] = orig + h
				o.Eval(x, gp)
				x[k] = orig - h
				o.Eval(x, gm)
				x[k] = orig
				for l := 0; l < n; l++ {
					want := 0.0
					if cloudOf[l] == cloudOf[k] {
						want = cloud[cloudOf[k]]
					}
					if l == k {
						want += diag[k]
					}
					if fd := (gp[l] - gm[l]) / (2 * h); math.Abs(fd-want) > 1e-6*(1+math.Abs(want)) {
						t.Fatalf("%s fast=%v: H[%d][%d] = %g from Curv, %g from gradient differences",
							tc.name, fast, l, k, want, fd)
					}
				}
			}
		}
	}
}

// TestStructuredPathsSolveWithNewton pins which inner solver every solve
// path reaches: each OnlineApprox program over structured rows — default,
// Candidates, Incremental, Shards in process and on shardrpc workers, exact
// and FastMath — is solved by the projected Newton method. The selection is
// alm.Solve's, from the objective's curvature; no option here chooses it.
func TestStructuredPathsSolveWithNewton(t *testing.T) {
	in := goldenInstance(t)
	host := NewShardHost()
	worker := httptest.NewServer(shardrpc.NewServer(host))
	defer worker.Close()
	for _, tc := range []struct {
		name   string
		opts   Options
		newton bool
	}{
		{"default", Options{}, true},
		{"Candidates", Options{Candidates: 3}, true},
		{"FastMath", Options{FastMath: true}, true},
		{"Incremental", Options{Incremental: true}, true},
		{"Candidates+Incremental+FastMath", Options{Candidates: 3, Incremental: true, FastMath: true}, true},
		{"Shards", Options{Shards: 2}, true},
		{"Shards+Candidates+FastMath", Options{Shards: 2, Candidates: 3, FastMath: true}, true},
		{"ShardWorkers", Options{Shards: 2, ShardWorkers: []string{worker.URL}}, true},
	} {
		opts := tc.opts
		opts.Metrics = telemetry.NewSolverMetrics(telemetry.NewRegistry())
		alg := NewOnlineApprox(in, opts)
		for tt := 0; tt < 2; tt++ {
			if _, err := alg.Step(tt); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			d := alg.LastStepDiag()
			// Every in-process solve evaluates at least once; a block solved
			// on a worker adds nothing, since the wire carries no count.
			if want := d.Outer > 0 && tc.opts.ShardWorkers == nil; (d.Evals > 0) != want {
				t.Errorf("%s slot %d: %d gradient evaluations over %d outer iterations", tc.name, tt, d.Evals, d.Outer)
			}
			if alg.shrd == nil {
				if got := alg.ws.Last(); got.Newton != tc.newton {
					t.Errorf("%s slot %d: Newton = %v, want %v", tc.name, tt, got.Newton, tc.newton)
				} else if d.Stationarity != got.ProjGrad || (tc.newton && d.Stationarity <= 0) {
					t.Errorf("%s slot %d: Stationarity %g, solver's projected gradient %g",
						tc.name, tt, d.Stationarity, got.ProjGrad)
				}
				continue
			}
			for si, b := range alg.shrd.blocks {
				if got := b.ws.Last(); got.Outer > 0 && !got.Newton {
					t.Errorf("%s slot %d: block %d solved by FISTA", tc.name, tt, si)
				}
			}
			if d.Inner == 0 || d.Stationarity != 0 {
				t.Errorf("%s slot %d: %d inner iterations, Stationarity %g (the sharded path reports none)",
					tc.name, tt, d.Inner, d.Stationarity)
			}
		}
		if n := opts.Metrics.RPCFallbacks.Value(); n != 0 {
			t.Errorf("%s: %v blocks folded back", tc.name, n)
		}
	}
	// The worker ran the ShardWorkers row's block solves, not the mirrors.
	host.mu.Lock()
	defer host.mu.Unlock()
	if len(host.blocks) == 0 {
		t.Fatal("no block was hosted")
	}
	for id, b := range host.blocks {
		if got := b.ws.Last(); got.Outer == 0 || !got.Newton {
			t.Errorf("hosted block %s: %d outer iterations, Newton = %v", id, got.Outer, got.Newton)
		}
	}
}

// TestNoMigrationCurvatureMatchesReference runs the online algorithm where
// P2's Hessian loses its diagonal — every migration price zero, so mgFac
// is zero everywhere — and one cloud its reconfiguration term. The Newton
// system is then singular but for its damping; the solves must still
// converge, and every slot must meet P2's KKT system (checkKKT).
func TestNoMigrationCurvatureMatchesReference(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 12, Horizon: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.MigOutPrice {
		in.MigOutPrice[i], in.MigInPrice[i] = 0, 0
	}
	in.ReconfPrice[2] = 0
	alg := NewOnlineApprox(in, Options{Solver: tightOpts()})
	for tt := 0; tt < in.T; tt++ {
		if _, err := alg.Step(tt); err != nil {
			t.Fatal(err)
		}
		if d := alg.LastStepDiag(); !d.Converged || d.Stationarity > 1e-9 {
			t.Errorf("slot %d: converged %v (%v), stationarity %g", tt, d.Converged, d.Stop, d.Stationarity)
		}
	}
	t.Logf("KKT residual %+v", checkKKT(t, "no migration", alg, alg.Schedule()))
}
