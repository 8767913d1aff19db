package shard

import (
	"math"
	"testing"
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
// reconfiguration term (RcFac = 0) and slack complement rows, so clouds
// decouple: cloud 0's capacity binds (Σ_s c_s0 = 8 > C_0 = 5), clouds 1
// and 2 are slack. With ν_i the capacity multiplier, block stationarity
// gives T_si = c_si − ν_i/a_si, hence
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
		ComplRHS: make([]float64, 3),
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
