package core

import (
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/solver/alm"
)

// complementViolation is the largest violation of the paper's
// complement-capacity rows Σ_{k≠i} Σ_j x_kj ≥ (Λ − C_i)⁺ at the dense point
// x, one row per cloud, scaled by 1+|RHS| as alm scales its rows. The
// single program no longer carries these rows (they are implied by demand
// + capacity, DESIGN.md §3b finding 4); they survive here as the reference
// the implication test below, and the Theorem-1 gap test, check against.
func complementViolation(in *model.Instance, x []float64) float64 {
	lambda, load, total := in.TotalWorkload(), make([]float64, in.I), 0.0
	for i := range load {
		for _, v := range x[i*in.J : (i+1)*in.J] {
			load[i] += v
		}
		total += load[i]
	}
	worst := 0.0
	for i, c := range in.Capacity {
		rhs := math.Max(0, lambda-c)
		worst = max(worst, (rhs-(total-load[i]))/(1+rhs))
	}
	return worst
}

// checkComplementImplied asserts the Farkas certificate that the rows the
// single program emitted imply complement row i for every cloud, given
// the frozen per-cloud flow F: the emitted demand rows sum to Σ_k A_k ≥
// Λ_act and capacity row i is A_i ≤ capRHS_i, so Σ_{k≠i} A_k ≥ Λ_act −
// capRHS_i, which must be no smaller (to round-off) than what complement
// row i still requires of the active flow, (Λ − C_i)⁺ − Σ_{k≠i} F_k; a
// requirement ≤ 0 is implied by x ≥ 0 alone.
func checkComplementImplied(t *testing.T, name string, in *model.Instance, rows []alm.GroupRow, frozenTot []float64) {
	t.Helper()
	lambdaAct, capRHS := 0.0, make([]float64, in.I)
	for _, r := range rows {
		switch r.Kind {
		case alm.GroupUserSum:
			lambdaAct += r.RHS
		case alm.GroupCloudSumNeg:
			capRHS[r.Index] = -r.RHS
		default:
			t.Fatalf("%s: single program emitted a row of kind %d", name, r.Kind)
		}
	}
	lambda, frozenSum := in.TotalWorkload(), 0.0
	for _, f := range frozenTot {
		frozenSum += f
	}
	for i := 0; i < in.I; i++ {
		required := math.Max(0, lambda-in.Capacity[i]) - (frozenSum - frozenTot[i])
		implied := math.Max(0, lambdaAct-capRHS[i])
		if required > implied+1e-9*(1+lambda) {
			t.Errorf("%s: complement row %d requires %.12g of the active flow, emitted rows imply only %.12g",
				name, i, required, implied)
		}
	}
}

// TestComplementRowsImplied is the property the reduced programs rest on:
// every point satisfying the rows buildRows emits — demand for the active
// users, capacity for every cloud — satisfies the paper's complement rows
// to round-off. It is checked two ways on random instances, on
// TestDegenerateCornersAcrossTiers' corners (ΣC = Σλ, λ_j > max C_i, I = 1,
// …) and on incremental states with frozen flow: by the certificate above
// on the emitted rows of every slot, and by holding every committed
// decision to complementViolation directly. With every slot's KKT check
// (checkKKT) this is also the quality half of dropping the rows: a KKT
// point of the demand + capacity program that meets the complement rows is
// optimal with them too, as they only shrink its feasible set. The sharded tiers, whose
// coordinator carries capacity on the totals and whose blocks end in an
// exact demand projection, emit no single row set and are held to the
// literal rows alone.
func TestComplementRowsImplied(t *testing.T) {
	type tc struct {
		name string
		in   *model.Instance
		opts Options
	}
	var cases []tc
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 6; trial++ {
		in := smallRandomInstance(rng)
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{"random", in, Options{}}, tc{"random/incremental", in, Options{Incremental: true}})
	}
	for _, c := range degenerateCorners() {
		if err := c.in.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cases = append(cases,
			tc{c.name, c.in, Options{}},
			tc{c.name + "/incremental", c.in, Options{Incremental: true}},
			tc{c.name + "/candidates+incremental", c.in, Options{Candidates: 1, Incremental: true}},
			tc{c.name + "/shards", c.in, Options{Shards: 2}},
			tc{c.name + "/shards+candidates+fastmath", c.in, Options{Shards: 2, Candidates: 1, FastMath: true}})
	}
	// Frozen flow at scale: the golden instance's 25% churn leaves most
	// users frozen on most slots.
	golden := goldenInstance(t)
	cases = append(cases,
		tc{"golden/incremental", golden, Options{Incremental: true, IncrementalTol: 0.5}},
		tc{"golden/candidates+incremental", golden, Options{Candidates: 3, Incremental: true, IncrementalTol: 0.5}})

	frozenSlots := 0
	for _, c := range cases {
		alg := NewOnlineApprox(c.in, c.opts)
		for tt := 0; tt < c.in.T; tt++ {
			x, err := alg.Step(tt)
			if err != nil {
				t.Fatalf("%s slot %d: %v", c.name, tt, err)
			}
			if s := alg.single; s != nil {
				checkComplementImplied(t, c.name, c.in, s.rows, s.frozenTot)
			}
			if alg.LastStepDiag().FrozenUsers > 0 {
				frozenSlots++
			}
			// A single program is feasible to its solver tolerance; a sharded
			// decision is projected onto demand and capacity exactly.
			bar := feasTol
			if alg.shrd != nil {
				bar = 1e-12
			}
			if v := complementViolation(c.in, x.X); v > bar {
				t.Errorf("%s slot %d: committed decision violates a complement row by %g", c.name, tt, v)
			}
		}
	}
	if frozenSlots == 0 {
		t.Error("no case committed a slot with frozen users; the incremental bound went unexercised")
	}
}

// TestSlackRowCrawlCertified pins the regression the σ-stall penalty rule
// fixes. On this 5-user Rome run slot 1 is primal-feasible from the second
// outer iteration with a multiplier left on a slack capacity row; under
// the violation-only rule ρ never grew, the multiplier decayed 7% per
// outer iteration, and the run's certificate residual ended at 5.8e-5
// (default, fast-math) and 6.2e-5 (candidates) against the conformance
// oracle's 1e-5 with the complement rows dropped and the old rule; it is
// 2e-9 and 3e-10 now.
func TestSlackRowCrawlCertified(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 5, Horizon: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"fastmath", Options{FastMath: true}},
		{"candidates", Options{Candidates: 2}},
		{"incremental", Options{Incremental: true}},
		{"candidates+incremental", Options{Candidates: 2, Incremental: true}},
	} {
		alg := NewOnlineApprox(in, tier.opts)
		if _, err := alg.Run(); err != nil {
			t.Fatalf("%s: %v", tier.name, err)
		}
		cert, err := alg.Certificate()
		if err != nil {
			t.Fatalf("%s: %v", tier.name, err)
		}
		if v := cert.Feasibility.Max(); v > 1e-5 {
			t.Errorf("%s: certificate residual %g > 1e-5", tier.name, v)
		}
	}
}
