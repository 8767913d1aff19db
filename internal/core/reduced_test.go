package core

import (
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/solver/alm"
)

// p2ComplementRows builds the paper's complement-capacity rows
// Σ_{k≠i} Σ_j x_kj ≥ (Λ − C_i)⁺, one per cloud, over the dense grid. The
// single program no longer carries them (they are implied by demand +
// capacity, DESIGN.md §3b finding 4); they survive here as the reference
// the implication and no-worse tests below, and the Theorem-1 gap test,
// check against.
func p2ComplementRows(in *model.Instance) []alm.Constraint {
	nI, nJ := in.I, in.J
	lambda := in.TotalWorkload()
	cons := make([]alm.Constraint, 0, nI)
	for i := 0; i < nI; i++ {
		idx := make([]int, 0, (nI-1)*nJ)
		coef := make([]float64, 0, (nI-1)*nJ)
		for k := 0; k < nI; k++ {
			if k == i {
				continue
			}
			for j := 0; j < nJ; j++ {
				idx = append(idx, k*nJ+j)
				coef = append(coef, 1)
			}
		}
		cons = append(cons, alm.Constraint{Idx: idx, Coeffs: coef, RHS: math.Max(0, lambda-in.Capacity[i])})
	}
	return cons
}

// maxRowViolation is max_k (b_k − A_k·x)⁺ / (1+|b_k|), alm's row scaling.
func maxRowViolation(cons []alm.Constraint, x []float64) float64 {
	worst := 0.0
	for _, c := range cons {
		ax := 0.0
		for t, k := range c.Idx {
			ax += c.Coeffs[t] * x[k]
		}
		if v := (c.RHS - ax) / (1 + math.Abs(c.RHS)); v > worst {
			worst = v
		}
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
// decision to p2ComplementRows directly. The sharded tiers, whose
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
		compl := p2ComplementRows(c.in)
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
			if v := maxRowViolation(compl, x.X); v > bar {
				t.Errorf("%s slot %d: committed decision violates a complement row by %g", c.name, tt, v)
			}
		}
	}
	if frozenSlots == 0 {
		t.Error("no case committed a slot with frozen users; the incremental bound went unexercised")
	}
}

// withComplementRows is the program the parent solved: demand, then the
// complement rows, then capacity — p2Constraints with p2ComplementRows
// spliced in at the ρ block of the [θ | ρ | ν] layout.
func withComplementRows(in *model.Instance) []alm.Constraint {
	reduced := p2Constraints(in)
	cons := append(reduced[:in.J:in.J], p2ComplementRows(in)...)
	return append(cons, reduced[in.J:]...)
}

// TestReducedProgramNoWorse is the quality half of dropping the complement
// rows: from one exported state — the same previous decision, the same
// warm multipliers, the same solver budget — the demand + capacity program
// must reach a P2 objective no higher than the with-complement reference
// (to 1e-7 relative) at no larger violation of the full row set, on a Rome
// window and on a capacity-tight instance where the dropped rows bind.
func TestReducedProgramNoWorse(t *testing.T) {
	rome, _, err := scenario.Rome(scenario.Config{Users: 30, Horizon: 5, Seed: 20140212})
	if err != nil {
		t.Fatal(err)
	}
	// Capacity-tight: the same window with 3% total headroom, so several
	// clouds run at capacity and Λ − C_i > 0 for every i.
	tight := *rome
	tight.Capacity = append([]float64(nil), rome.Capacity...)
	totalCap := 0.0
	for _, c := range rome.Capacity {
		totalCap += c
	}
	for i := range tight.Capacity {
		tight.Capacity[i] *= 1.03 * rome.TotalWorkload() / totalCap
	}
	if err := tight.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		in   *model.Instance
	}{{"rome window", rome}, {"capacity-tight", &tight}} {
		in := c.in
		alg := NewOnlineApprox(in, Options{})
		for tt := 0; tt < in.T-1; tt++ {
			if _, err := alg.Step(tt); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		st := alg.ExportState()
		tt, nI, nJ := st.Slot, in.I, in.J
		prev := model.Alloc{I: nI, J: nJ, X: st.Schedule[tt-1]}
		full := withComplementRows(in)
		solve := func(cons []alm.Constraint, warmDuals []float64) *alm.Result {
			sopts := alg.opts.Solver
			sopts.WarmX, sopts.WarmDuals = prev.X, warmDuals
			res, err := alm.Solve(&alm.Problem{
				Obj: newP2Objective(in, tt, prev, alg.opts.Epsilon1, alg.opts.Epsilon2),
				N:   nI * nJ, Lower: make([]float64, nI*nJ), Cons: cons,
			}, sopts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return res
		}
		// The exported record is [θ | ρ=0 | ν]: the reference takes it as
		// is, the reduced program drops the ρ block.
		duals := st.Duals[tt-1]
		red := solve(p2Constraints(in), append(append([]float64(nil), duals[:nJ]...), duals[nJ+nI:]...))
		ref := solve(full, duals)

		if slack := 1e-7 * (1 + math.Abs(ref.Objective)); red.Objective > ref.Objective+slack {
			t.Errorf("%s: reduced objective %.10g above the with-complement reference %.10g",
				c.name, red.Objective, ref.Objective)
		}
		rv, fv := maxRowViolation(full, red.X), maxRowViolation(full, ref.X)
		if rv > math.Max(fv, alg.opts.Solver.FeasTol) {
			t.Errorf("%s: reduced solution violates the full row set by %g, reference by %g", c.name, rv, fv)
		}
		t.Logf("%s: objective %.10g reduced vs %.10g reference (Δ %.3g), inner %d vs %d, violation %.3g vs %.3g",
			c.name, red.Objective, ref.Objective, red.Objective-ref.Objective, red.InnerIters, ref.InnerIters, rv, fv)
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

// TestRestoreFoldsComplementDuals: a warm state written while the single
// program still carried complement rows has ρ' ≠ 0. Restored, it must
// drive the next slot exactly as the equivalent ρ' = 0 state does — the
// fold θ_j + Σ_i ρ'_i, ν_i + ρ'_i is an identity on every reduced
// gradient — and the stored record itself must come back untouched.
func TestRestoreFoldsComplementDuals(t *testing.T) {
	in := tightCorner()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Candidates: 1}} {
		first := NewOnlineApprox(in, opts)
		for tt := 0; tt < 2; tt++ {
			if _, err := first.Step(tt); err != nil {
				t.Fatal(err)
			}
		}
		st := first.ExportState()
		nI, nJ := in.I, in.J
		// The same multipliers as the parent would have written them: move
		// half of every capacity dual onto the complement row.
		old := first.ExportState()
		row := old.Duals[1]
		rhoSum := 0.0
		for i := 0; i < nI; i++ {
			r := row[nJ+nI+i] / 2
			row[nJ+i], row[nJ+nI+i] = r, row[nJ+nI+i]-r
			rhoSum += r
		}
		if rhoSum == 0 {
			t.Fatal("no capacity row binds on the ΣC = Σλ corner; the fold went unexercised")
		}
		for j := 0; j < nJ; j++ {
			row[j] -= rhoSum
		}
		step := func(s *WarmState) model.Alloc {
			alg := NewOnlineApprox(in, opts)
			if err := alg.RestoreState(s); err != nil {
				t.Fatal(err)
			}
			x, err := alg.Step(2)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range alg.Duals()[1] {
				if v != s.Duals[1][k] {
					t.Fatalf("restored dual record entry %d rewritten: %g, stored %g", k, v, s.Duals[1][k])
				}
			}
			return x
		}
		want, got := step(st), step(old)
		for k := range want.X {
			if d := math.Abs(got.X[k] - want.X[k]); d > 1e-9 {
				t.Errorf("candidates=%d: x[%d] = %.12g from the ρ≠0 state, %.12g from its fold", opts.Candidates, k, got.X[k], want.X[k])
			}
		}
	}
}
