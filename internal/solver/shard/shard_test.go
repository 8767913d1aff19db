package shard

import (
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/solver/alm"
)

func TestRangeLen(t *testing.T) {
	if got := (Range{Lo: 3, Hi: 9}).Len(); got != 6 {
		t.Fatalf("Len = %d, want 6", got)
	}
	if got := (Range{Lo: 4, Hi: 4}).Len(); got != 0 {
		t.Fatalf("empty Len = %d, want 0", got)
	}
}

// TestPartitionEdgeCases pins the clamping and balance rules: contiguous
// cover, sizes differing by at most one, S clamped into [1, J] (with the
// J = 0 degenerate case yielding one empty shard).
func TestPartitionEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		J, S      int
		wantLen   int
		wantSizes []int // nil = check balance generically
	}{
		{"S=1 takes everything", 7, 1, 1, []int{7}},
		{"even split", 8, 4, 4, []int{2, 2, 2, 2}},
		{"uneven split", 10, 3, 3, []int{3, 3, 4}},
		{"uneven split small", 5, 2, 2, []int{2, 3}},
		{"S=J singleton shards", 4, 4, 4, []int{1, 1, 1, 1}},
		{"S>J clamps to J", 3, 64, 3, []int{1, 1, 1}},
		{"S=0 clamps to 1", 5, 0, 1, []int{5}},
		{"S negative clamps to 1", 5, -2, 1, []int{5}},
		{"J=0 single empty shard", 0, 3, 1, []int{0}},
		{"J=0 S=0", 0, 0, 1, []int{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Partition(tc.J, tc.S)
			if len(got) != tc.wantLen {
				t.Fatalf("Partition(%d, %d) = %v: %d shards, want %d",
					tc.J, tc.S, got, len(got), tc.wantLen)
			}
			// Contiguous cover of [0, J).
			if got[0].Lo != 0 || got[len(got)-1].Hi != tc.J {
				t.Fatalf("Partition(%d, %d) = %v does not cover [0, %d)",
					tc.J, tc.S, got, tc.J)
			}
			for s := 1; s < len(got); s++ {
				if got[s].Lo != got[s-1].Hi {
					t.Fatalf("Partition(%d, %d) = %v has a gap before shard %d",
						tc.J, tc.S, got, s)
				}
			}
			for s, r := range got {
				if r.Len() != tc.wantSizes[s] {
					t.Fatalf("Partition(%d, %d) = %v: shard %d has %d users, want %d",
						tc.J, tc.S, got, s, r.Len(), tc.wantSizes[s])
				}
			}
		})
	}
}

// TestPartitionBalancedAndReproducible sweeps (J, S) combinations for the
// generic invariants: cover, monotone bounds, |size_a − size_b| ≤ 1, and
// value-identity across calls (the cross-process placement contract).
func TestPartitionBalancedAndReproducible(t *testing.T) {
	for J := 0; J <= 40; J++ {
		for S := 1; S <= 12; S++ {
			a := Partition(J, S)
			minLen, maxLen := J, 0
			total := 0
			for _, r := range a {
				if r.Lo < 0 || r.Hi > J || r.Lo > r.Hi {
					t.Fatalf("Partition(%d, %d): bad range %+v", J, S, r)
				}
				total += r.Len()
				if r.Len() < minLen {
					minLen = r.Len()
				}
				if r.Len() > maxLen {
					maxLen = r.Len()
				}
			}
			if total != J {
				t.Fatalf("Partition(%d, %d) covers %d users", J, S, total)
			}
			if len(a) > 0 && maxLen-minLen > 1 {
				t.Fatalf("Partition(%d, %d) = %v: sizes differ by %d", J, S, a, maxLen-minLen)
			}
			b := Partition(J, S)
			for s := range a {
				if a[s] != b[s] {
					t.Fatalf("Partition(%d, %d) not reproducible: %v vs %v", J, S, a, b)
				}
			}
		}
	}
}

// quadBlock is a Block with the closed-form local objective
// Σ_i (a_i/2)(T_i − c_i)² directly on its cloud totals, so its x-step is
// T_i = (a_i·c_i + ρ·target_i)/(a_i + ρ) and the coordinated optimum is
// analytic.
type quadBlock struct{ a, c, t []float64 }

func (b *quadBlock) Solve(rho float64, target, totals []float64) (int, int, error) {
	for i := range b.t {
		b.t[i] = (b.a[i]*b.c[i] + rho*target[i]) / (b.a[i] + rho)
	}
	copy(totals, b.t)
	return 1, 1, nil
}

func (b *quadBlock) WarmTotalsInto(totals []float64) { copy(totals, b.t) }

// quadProblem is four quadBlocks over three clouds with no
// reconfiguration term (RcFac = 0), so clouds decouple: cloud 0's capacity
// binds (Σ_s c_s0 = 8 > C_0 = 5), clouds 1 and 2 are slack. With ν_i the
// capacity multiplier, block stationarity gives T_si = c_si − ν_i/a_si,
// hence
//
//	ν_0 = (Σ_s c_s0 − C_0)/Σ_s 1/a_s0,  Z_0 = C_0;  ν_i = 0, Z_i = Σ_s c_si otherwise.
func quadProblem(opts Options) (c *Coordinator, wantTotals, wantNu []float64) {
	a := [][]float64{{1, 2, 1}, {2, 1, 3}, {4, 2, 1}, {1, 1, 2}}
	ctr := [][]float64{{3, 1, 0.5}, {2, 0.5, 1}, {1, 1, 0.5}, {2, 0.5, 1}}
	blocks := make([]Block, len(a))
	for s := range a {
		// Warm at the block's own optimum: what it picks before any price.
		blocks[s] = &quadBlock{a: a[s], c: ctr[s], t: append([]float64(nil), ctr[s]...)}
	}
	cpl := Coupling{
		RcFac:    make([]float64, 3),
		PrevTot:  make([]float64, 3),
		Eps1:     1,
		Capacity: []float64{5, 4, 6},
	}
	invA := 1/a[0][0] + 1/a[1][0] + 1/a[2][0] + 1/a[3][0]
	return NewCoordinator(3, blocks, cpl, opts),
		[]float64{5, 3, 3}, []float64{(8 - 5) / invA, 0, 0}
}

// TestCoordinatorQuadraticBlocks drives the sharing-ADMM loop on its own,
// against a program whose optimum is known in closed form.
func TestCoordinatorQuadraticBlocks(t *testing.T) {
	// The default DualTol stops while the slack clouds are still 1e-5 from
	// the optimum; tighten it to compare against the closed form.
	opts := Options{MaxIters: 300, DualTol: 1e-10}
	solveSlot := func(c *Coordinator) *Result {
		t.Helper()
		c.BeginSlot()
		res, err := c.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	c, wantTotals, wantNu := quadProblem(opts)
	res := solveSlot(c)
	if !res.Converged || res.MaxResidual > c.opts.PrimalTol {
		t.Fatalf("converged=%v after %d rounds, residual %g > %g",
			res.Converged, res.Iters, res.MaxResidual, c.opts.PrimalTol)
	}
	for i := range wantTotals {
		if d := math.Abs(res.Totals[i] - wantTotals[i]); d > 1e-6 {
			t.Errorf("Totals[%d] = %.9f, analytic %.9f", i, res.Totals[i], wantTotals[i])
		}
		if d := math.Abs(res.NuDuals[i] - wantNu[i]); d > 1e-5 {
			t.Errorf("NuDuals[%d] = %.9f, analytic %.9f", i, res.NuDuals[i], wantNu[i])
		}
		if d := math.Abs(res.Prices[i] - wantNu[i]); d > 1e-5 {
			t.Errorf("Prices[%d] = %.9f, analytic capacity price %.9f", i, res.Prices[i], wantNu[i])
		}
	}
	firstIters := res.Iters
	totals := append([]float64(nil), res.Totals...)
	nu := append([]float64(nil), res.NuDuals...)

	// Committed prices carry: the same slot again needs far fewer rounds,
	// and it is the prices, not the blocks' warm points, that buy that —
	// a coordinator that skips the commit restarts from zero prices.
	c.CommitSlot()
	again := solveSlot(c)
	if !again.Converged || again.Iters >= firstIters {
		t.Errorf("repeated slot took %d rounds (converged=%v), first took %d",
			again.Iters, again.Converged, firstIters)
	}
	uncommitted, _, _ := quadProblem(opts)
	solveSlot(uncommitted)
	if res := solveSlot(uncommitted); res.Iters <= again.Iters {
		t.Errorf("uncommitted repeat took %d rounds, committed repeat %d", res.Iters, again.Iters)
	}

	// Blocks reduce in index order, so the worker count changes nothing.
	opts.Workers = 4
	c4, _, _ := quadProblem(opts)
	res4 := solveSlot(c4)
	if res4.Iters != firstIters {
		t.Errorf("Workers=4 took %d rounds, Workers=1 took %d", res4.Iters, firstIters)
	}
	for i := range totals {
		if res4.Totals[i] != totals[i] || res4.NuDuals[i] != nu[i] {
			t.Errorf("cloud %d: Workers=4 (%v, %v) differs from Workers=1 (%v, %v)",
				i, res4.Totals[i], res4.NuDuals[i], totals[i], nu[i])
		}
	}

	// An exhausted budget is reported, with the residual it stopped at.
	c1, _, _ := quadProblem(Options{MaxIters: 1})
	res1 := solveSlot(c1)
	if res1.Converged || res1.Iters != 1 {
		t.Errorf("MaxIters=1: converged=%v after %d rounds", res1.Converged, res1.Iters)
	}
	// Z_0 sits on its capacity row while the blocks still overshoot it.
	over := res1.Totals[0] - 5
	if want := over / (1 + res1.Totals[0]); over <= 0 || math.Abs(res1.MaxResidual-want) > 1e-8 {
		t.Errorf("MaxIters=1: residual %g, want (X̂_0 − C_0)/(1+X̂_0) = %g", res1.MaxResidual, want)
	}
}

// zObjective is the smooth part of the z-step over all clouds at once —
// the reconfiguration regularizer on the totals plus the ADMM proximal
// term — as the coordinator posed it while it still solved the z-step
// iteratively. It survives as the reference prox is pinned to.
type zObjective struct {
	cpl      Coupling
	v        []float64
	rhoOverS float64
}

// Eval implements fista.Objective.
func (o *zObjective) Eval(x, grad []float64) float64 {
	cpl := &o.cpl
	f := 0.0
	for i, z := range x {
		lg := math.Log((z + cpl.Eps1) / (cpl.PrevTot[i] + cpl.Eps1))
		d := z - o.v[i]
		f += cpl.RcFac[i]*((z+cpl.Eps1)*lg-z) + 0.5*o.rhoOverS*d*d
		if grad != nil {
			grad[i] = cpl.RcFac[i]*lg + o.rhoOverS*d
		}
	}
	return f
}

// zReference solves the z-program with the generic stack: zObjective over
// Z ≥ 0 with one capacity row per cloud, through alm.Solve at a tight
// budget. It returns Z and the capacity multipliers. The first solve pins
// Z, but the penalty it grows on the way lets the stop rule's σ = |Δy|/ρ
// pass with the multipliers still 1e-3 off; a second solve, warm from the
// first at a fixed unit penalty, settles them.
func zReference(t *testing.T, obj *zObjective) (z, nu []float64) {
	t.Helper()
	nI := len(obj.v)
	// An I×1 grid: cloud i's one variable is Z_i.
	g := &alm.Groups{I: nI, J: 1, Rows: make([]alm.GroupRow, nI),
		RowPtr: make([]int, nI+1), Cols: make([]int, nI)}
	for i := range g.Rows {
		g.Rows[i] = alm.GroupRow{Kind: alm.GroupCloudSumNeg, Index: i, RHS: -obj.cpl.Capacity[i]}
		g.RowPtr[i+1] = i + 1
	}
	prob := &alm.Problem{Obj: obj, N: nI, Groups: g}
	opts := alm.Options{MaxOuter: 400, InnerIters: 20000, FeasTol: 1e-12, DualTol: 1e-11, ObjTol: 1e-15}
	for _, growth := range []float64{0, 1.0001} {
		opts.Penalty, opts.PenaltyGrowth = 1, growth
		res, err := alm.Solve(prob, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.WarmX, opts.WarmDuals = res.X, res.Duals
	}
	return opts.WarmX, opts.WarmDuals
}

// checkProxKKT holds one prox result to the scalar KKT system, which the
// strictly convex problem's minimizer alone satisfies: inside the box g(Z)
// = 0 to 1e-12·(1+k|v|) with ν = 0; at Z = 0, g ≥ 0; at Z = C, ν = −g ≥ 0.
func checkProxKKT(t *testing.T, name string, rcFac, prev, eps1, k, v, c, z, nu float64) {
	t.Helper()
	g := rcFac*math.Log((z+eps1)/(prev+eps1)) + k*(z-v)
	switch {
	case !(z >= 0 && z <= c && nu >= 0):
		t.Errorf("%s: Z = %g, ν = %g outside 0 ≤ Z ≤ %g, ν ≥ 0", name, z, nu, c)
	case z == c:
		if g+nu != 0 {
			t.Errorf("%s: at capacity g + ν = %g + %g ≠ 0", name, g, nu)
		}
	case nu != 0:
		t.Errorf("%s: ν = %g with Z = %g below capacity %g", name, nu, z, c)
	case z == 0:
		if g < 0 {
			t.Errorf("%s: at zero g = %g < 0", name, g)
		}
	default:
		if tol := 1e-12 * (1 + k*math.Abs(v)); math.Abs(g) > tol {
			t.Errorf("%s: stationarity residual %g > %g at Z = %g", name, g, tol, z)
		}
	}
}

// checkProxAgainstReference holds the closed form to its KKT system and to
// the iterative solve. The accuracy claim rests on checkProxKKT (1e-12),
// the objective comparison here, and the independent Newton root of
// TestProxGrid (1e-10): the bars on Z and ν against the alm reference are
// that reference's own noise floor (FISTA leaves on objective stagnation;
// over 400 random couplings it sits up to 1.5e-7 and 3e-6 from the closed
// form), so this comparison says the closed form solves the program the
// coordinator used to pose, not how accurately.
func checkProxAgainstReference(t *testing.T, name string, cpl Coupling, k float64, v []float64) {
	t.Helper()
	obj := &zObjective{cpl: cpl, v: v, rhoOverS: k}
	zRef, nuRef := zReference(t, obj)
	zs := make([]float64, len(v))
	for i := range v {
		c := cpl.Capacity[i]
		z, nu := prox(cpl.RcFac[i], cpl.PrevTot[i], cpl.Eps1, k, v[i], c)
		checkProxKKT(t, name, cpl.RcFac[i], cpl.PrevTot[i], cpl.Eps1, k, v[i], c, z, nu)
		if d := math.Abs(z - zRef[i]); d > 1e-6*(1+math.Abs(z)) {
			t.Errorf("%s cloud %d: Z = %.12g, reference %.12g", name, i, z, zRef[i])
		}
		if d := math.Abs(nu - nuRef[i]); d > 1e-5*(1+math.Abs(nu)) {
			t.Errorf("%s cloud %d: ν = %.12g, reference %.12g", name, i, nu, nuRef[i])
		}
		zs[i] = z
		zRef[i] = math.Min(zRef[i], c) // the reference is feasible to its FeasTol only
	}
	if f, fRef := obj.Eval(zs, nil), obj.Eval(zRef, nil); f > fRef+1e-9*(1+math.Abs(fRef)) {
		t.Errorf("%s: closed-form objective %.15g above the reference's %.15g", name, f, fRef)
	}
}

// TestProxMatchesReference pins the closed-form z-step to the iterative
// solve it replaced, on random couplings and on the corners of the scalar
// problem.
func TestProxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		nI := 1 + rng.Intn(8)
		cpl := Coupling{
			RcFac:    make([]float64, nI),
			PrevTot:  make([]float64, nI),
			Eps1:     []float64{0.1, 1, 10}[rng.Intn(3)],
			Capacity: make([]float64, nI),
		}
		v := make([]float64, nI)
		for i := range v {
			cpl.RcFac[i] = 3 * rng.Float64()
			cpl.Capacity[i] = 1 + 9*rng.Float64()
			cpl.PrevTot[i] = cpl.Capacity[i] * rng.Float64()
			v[i] = cpl.Capacity[i] * (3*rng.Float64() - 1) // below 0, inside, and past C
		}
		checkProxAgainstReference(t, "random", cpl, []float64{0.25, 1, 4, 16}[rng.Intn(4)], v)
	}

	// One cloud per corner: linear (rcFac = 0) inside, under and over the
	// box; v < 0 with the logarithm pulling Z up; an interior root; the
	// same cloud with its capacity exactly at that root, so the clamp binds
	// with ν = 0; and X' = 0.
	const k = 1.0
	root, _ := prox(2, 2, 1, k, 3, 5)
	cpl := Coupling{
		RcFac:    []float64{0, 0, 0, 2, 2, 2, 2},
		PrevTot:  []float64{1, 1, 1, 3, 2, 2, 0},
		Eps1:     1,
		Capacity: []float64{5, 5, 5, 5, 5, root, 5},
	}
	checkProxAgainstReference(t, "corners", cpl, k, []float64{2, -3, 400, -0.5, 3, 3, 2})
	if z, nu := prox(2, 2, 1, k, 3, root); z != root || nu > 1e-15 {
		t.Errorf("capacity at the root: Z = %g, ν = %g, want %g, 0", z, nu, root)
	}

	// X' = 0 under a small and a huge ε₁: the logarithm's curvature at zero
	// is rcFac/ε₁, from a near-vertical g at the left end to a linear one.
	for _, eps1 := range []float64{1e-6, 1e6} {
		cpl := Coupling{
			RcFac:    []float64{1.5, 0.2, 4},
			PrevTot:  []float64{0, 0, 0},
			Eps1:     eps1,
			Capacity: []float64{4, 9, 2},
		}
		checkProxAgainstReference(t, "X'=0", cpl, 2, []float64{1, 12, 0.5})
	}
}

// newtonRoot is an independent root-finder for prox's g on (0, c): g is
// increasing and concave, so Newton from z = 0 climbs monotonically and
// stops when a step no longer moves z.
func newtonRoot(rcFac, prev, eps1, k, v, c float64) float64 {
	z := 0.0
	for n := 0; n < 200; n++ {
		gz := rcFac*math.Log((z+eps1)/(prev+eps1)) + k*(z-v)
		next := math.Min(z-gz/(rcFac/(z+eps1)+k), c)
		if gz >= 0 || next <= z {
			break
		}
		z = next
	}
	return z
}

// TestProxGrid sweeps the parameter ranges the coordinator can see — ε₁ ∈
// [1e-9, 1e6], rcFac ∈ [0, 1e3], ρ/S ∈ [0.01, 16] — and requires the KKT
// system at every point and, where the root is interior, agreement with
// Newton's to 1e-10·(1+Z) (measured 3e-13). (Not to the bit: where ε₁ dwarfs Z the
// logarithm's rounding leaves g a noise band around its root.)
func TestProxGrid(t *testing.T) {
	const c = 50.0
	for _, eps1 := range []float64{1e-9, 1e-6, 1e-3, 1, 1e3, 1e6} {
		for _, rcFac := range []float64{0, 1e-3, 1, 30, 1e3} {
			for _, k := range []float64{0.01, 0.25, 1, 4, 16} {
				for _, prev := range []float64{0, 0.3, 40} {
					for _, v := range []float64{-2, 0.5, 17, 90} {
						z, nu := prox(rcFac, prev, eps1, k, v, c)
						checkProxKKT(t, "grid", rcFac, prev, eps1, k, v, c, z, nu)
						if zn := newtonRoot(rcFac, prev, eps1, k, v, c); z > 0 && z < c && math.Abs(zn-z) > 1e-10*(1+z) {
							t.Errorf("ε₁=%g rcFac=%g k=%g X'=%g v=%g: Z = %v, Newton %v", eps1, rcFac, k, prev, v, z, zn)
						}
					}
				}
			}
		}
	}
	// A NaN center (a bug upstream) must not come back as a clean answer.
	if _, nu := prox(1, 1, 1, 1, math.NaN(), c); !math.IsNaN(nu) {
		t.Errorf("NaN center: ν = %g, want NaN", nu)
	}
}
