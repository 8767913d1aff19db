package alm

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"edgealloc/internal/solver/fista"
)

// entropic is a P2-shaped objective over a Groups grid:
//
//	Σ_k c_k x_k + mg_k·((x_k+1) ln((x_k+1)/(p_k+1)) − x_k)
//	+ Σ_i rc_i·((X_i+1) ln((X_i+1)/(P_i+1)) − X_i),   X_i cloud i's total.
//
// Its Hessian is diag(mg_k/(x_k+1)) + Σ_i rc_i/(X_i+1)·v_i v_iᵀ, which Curv
// reports.
type entropic struct {
	g           *Groups
	c, mg, p    []float64
	rc, prevTot []float64
}

func (o *entropic) Eval(x, grad []float64) float64 {
	ptr := o.g.RowPtr
	f := 0.0
	for i := 0; i < o.g.I; i++ {
		s := 0.0
		for _, v := range x[ptr[i]:ptr[i+1]] {
			s += v
		}
		lg := math.Log((s + 1) / (o.prevTot[i] + 1))
		f += o.rc[i] * ((s+1)*lg - s)
		for k := ptr[i]; k < ptr[i+1]; k++ {
			l := math.Log((x[k] + 1) / (o.p[k] + 1))
			f += o.c[k]*x[k] + o.mg[k]*((x[k]+1)*l-x[k])
			if grad != nil {
				grad[k] = o.c[k] + o.mg[k]*l + o.rc[i]*lg
			}
		}
	}
	return f
}

func (o *entropic) Curv(x, diag, cloud []float64) {
	ptr := o.g.RowPtr
	for i := range cloud {
		s := 0.0
		for k := ptr[i]; k < ptr[i+1]; k++ {
			s += x[k]
			diag[k] = o.mg[k] / (x[k] + 1)
		}
		cloud[i] = o.rc[i] / (s + 1)
	}
}

// The curvature classes curvProgram draws from.
const (
	curved    = iota // every variable and every cloud has curvature
	noDiag           // mg = 0 everywhere (D is the damping alone), one cloud with rc = 0
	allLinear        // no curvature at all: the program is an LP
)

// curvProgram draws a feasible P2-shaped program over a full or pruned
// grid: demands and capacities are the column and (padded)
// row sums of a random positive point, so capacity rows can bind without
// the program being infeasible.
func curvProgram(rng *rand.Rand, pruned bool, class int) (*Problem, *entropic) {
	var g *Groups
	if pruned {
		g = randomGrid(rng, true)
	} else {
		g = gridGroups(1, 2+rng.Intn(5), 1+rng.Intn(8), nil)
	}
	n := len(g.Cols)
	o := &entropic{g: g, c: make([]float64, n), mg: make([]float64, n), p: make([]float64, n),
		rc: make([]float64, g.I), prevTot: make([]float64, g.I)}
	ptr := o.g.RowPtr
	demand := make([]float64, g.J)
	g.Rows = g.Rows[:0]
	capRows := make([]GroupRow, g.I)
	for i := 0; i < g.I; i++ {
		tot := 0.0
		for k := ptr[i]; k < ptr[i+1]; k++ {
			v := 0.1 + rng.Float64()
			tot += v
			demand[g.Cols[k]] += v
			o.c[k] = 3 * rng.Float64()
			o.mg[k] = 0.1 + rng.Float64()
			if rng.Intn(3) == 0 {
				o.p[k] = rng.Float64()
			}
			o.prevTot[i] += o.p[k]
		}
		o.rc[i] = rng.Float64()
		capRows[i] = GroupRow{Kind: GroupCloudSumNeg, Index: i, RHS: -tot * (1.02 + 0.6*rng.Float64())}
	}
	switch class {
	case noDiag:
		clear(o.mg)
		o.rc[rng.Intn(g.I)] = 0
	case allLinear:
		clear(o.mg)
		clear(o.rc)
	}
	for j, d := range demand {
		g.Rows = append(g.Rows, GroupRow{Kind: GroupUserSum, Index: j, RHS: d})
	}
	g.Rows = append(g.Rows, capRows...)
	return &Problem{Obj: o, N: n, Groups: g}, o
}

// tightNewtonOpts are budgets under which FISTA, too, reaches the optimum
// to ~1e-9 on programs this small.
func tightNewtonOpts() Options {
	return Options{MaxOuter: 400, InnerIters: 8000, FeasTol: 1e-10, DualTol: 1e-9, ObjTol: 1e-13}
}

// solveNewtonAndFista solves p with the inner solver its structure selects
// (Newton) and again with the objective's curvature hidden (FISTA).
func solveNewtonAndFista(t *testing.T, p *Problem, opts Options) (newton, ref Result) {
	t.Helper()
	rn, err := Solve(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	hidden := *p
	hidden.Obj = fista.Func(p.Obj.Eval)
	rf, err := Solve(&hidden, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rn.Newton || rf.Newton {
		t.Fatalf("inner solver: Newton=%v on the structured program, %v with the curvature hidden", rn.Newton, rf.Newton)
	}
	if rf.ProjGrad != 0 || rf.Fallbacks != 0 {
		t.Errorf("FISTA path reports ProjGrad %g, Fallbacks %d", rf.ProjGrad, rf.Fallbacks)
	}
	checkReadAtX(t, "newton", p, rn)
	checkReadAtX(t, "fista", &hidden, rf)
	return *rn, *rf
}

// checkReadAtX holds Result.Objective and Result.MaxViolation — which Solve
// takes from evaluations its loop already made — to a recomputation at
// Result.X, bit for bit: entropic sums in one order with or without a
// gradient (internal/core's kernels do not, and agree to ~1e-16 relative).
// Programs whose arc searches reject trials (TestNewtonDegenerateCurvature)
// are where a value carried from the wrong evaluation would show.
func checkReadAtX(t *testing.T, solver string, p *Problem, r *Result) {
	t.Helper()
	if f := p.Obj.Eval(r.X, nil); r.Objective != f {
		t.Errorf("%s: Objective %.17g, f(X) = %.17g", solver, r.Objective, f)
	}
	ws := workspaceFor(p)
	p.Groups.axInto(r.X, ws.ax, &ws.gs)
	viol := 0.0
	for k, a := range ws.ax {
		rhs := p.Groups.Rows[k].RHS
		viol = max(viol, (rhs-a)/(1+math.Abs(rhs)))
	}
	if r.MaxViolation != viol {
		t.Errorf("%s: MaxViolation %v, recomputed at X %v", solver, r.MaxViolation, viol)
	}
}

// countingObjective counts an objective's evaluations by kind.
type countingObjective struct {
	Curvature
	values, grads int
}

func (c *countingObjective) Eval(x, grad []float64) float64 {
	if grad == nil {
		c.values++
	} else {
		c.grads++
	}
	return c.Curvature.Eval(x, grad)
}

// TestNewtonPathMakesNoValueOnlyEvaluation pins one evaluation per point:
// on the Newton path every f Solve reports or tests was computed by the
// gradient evaluation that produced the point, so the objective is never
// asked for a value alone. The same programs behind a bare gradient oracle
// keep FISTA's one reading per outer iteration, at the point it returns.
func TestNewtonPathMakesNoValueOnlyEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(2017))
	for trial := 0; trial < 10; trial++ {
		p, o := curvProgram(rng, trial%2 == 1, curved)
		obj := &countingObjective{Curvature: o}
		p.Obj = obj
		res, err := Solve(p, tightNewtonOpts())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Newton || !res.Converged {
			t.Fatalf("trial %d: Newton=%v Converged=%v", trial, res.Newton, res.Converged)
		}
		if obj.values != 0 || obj.grads == 0 {
			t.Errorf("trial %d: %d value-only and %d gradient evaluations, want 0 and > 0", trial, obj.values, obj.grads)
		}

		oracle := *p
		oracle.Obj = fista.Func(o.Eval)
		res, err = Solve(&oracle, Options{MaxOuter: 8})
		if err != nil {
			t.Fatal(err)
		}
		if res.Newton {
			t.Fatalf("trial %d: gradient oracle solved by Newton", trial)
		}
		checkReadAtX(t, "fista", &oracle, res)
	}
}

// pointRecorder records every point an objective is asked to evaluate with
// a gradient, by the bits of its coordinates.
type pointRecorder struct {
	Curvature
	seen  map[string]int // point → index of its first evaluation
	grads int
	// again and first are the indices of the first evaluation that repeated
	// a point and of the evaluation it repeated; again is −1 while none has.
	again, first int
}

func (r *pointRecorder) Eval(x, grad []float64) float64 {
	if grad != nil {
		key := make([]byte, 0, 8*len(x))
		for _, v := range x {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
		}
		if k, ok := r.seen[string(key)]; ok && r.again < 0 {
			r.again, r.first = r.grads, k
		} else if !ok {
			r.seen[string(key)] = r.grads
		}
		r.grads++
	}
	return r.Curvature.Eval(x, grad)
}

// TestNewtonPathEvaluatesNoPointTwice pins one evaluation per point in the
// other direction: the outer loop carries f, ∇f and A·x at the iterate into
// the multiplier update and the next inner solve, so no point is evaluated
// with its gradient twice in a Solve — an outer iteration after the first
// starts from the iterate the previous one accepted, and does not evaluate
// it again. Result.Evals counts the evaluations the objective saw.
func TestNewtonPathEvaluatesNoPointTwice(t *testing.T) {
	rng := rand.New(rand.NewSource(2017))
	for trial := 0; trial < 10; trial++ {
		p, o := curvProgram(rng, trial%2 == 1, curved)
		obj := &pointRecorder{Curvature: o, seen: map[string]int{}, again: -1}
		p.Obj = obj
		res, err := Solve(p, tightNewtonOpts())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Newton || !res.Converged || res.Outer < 2 {
			t.Fatalf("trial %d: Newton=%v Converged=%v after %d outer iterations", trial, res.Newton, res.Converged, res.Outer)
		}
		if obj.again >= 0 {
			t.Errorf("trial %d: gradient evaluation %d of %d repeats evaluation %d's point", trial, obj.again, obj.grads, obj.first)
		}
		if res.Evals != obj.grads {
			t.Errorf("trial %d: Result.Evals %d, the objective saw %d gradient evaluations", trial, res.Evals, obj.grads)
		}
	}
}

// workspaceFor returns a workspace sized for p's kernels.
func workspaceFor(p *Problem) *Workspace {
	ws := &Workspace{}
	ws.ensure(p.N, p.Groups.NumRows())
	ws.gs.ensure(p.Groups)
	return ws
}

// lagrangianAt evaluates p's augmented Lagrangian at x under multipliers y.
func lagrangianAt(p *Problem, x, y []float64, rho float64) float64 {
	l := lagrangian{p: p, y: y, rho: rho, ws: workspaceFor(p)}
	return l.Eval(x, nil)
}

// kktResidual is the stationarity error of (X, Duals) for the program
// itself — ‖x − P(x − (∇f − Aᵀy))‖∞, no penalty term — computed from the
// objective and the row kernel alone.
func kktResidual(p *Problem, r Result) float64 {
	g := make([]float64, p.N)
	p.Obj.Eval(r.X, g)
	p.Groups.addGrad(r.Duals, g, g, &workspaceFor(p).gs)
	res := 0.0
	for k, v := range g {
		if v > 0 {
			v = min(v, r.X[k])
		}
		res = max(res, math.Abs(v))
	}
	return res
}

// checkAgreement holds a Newton solve to the FISTA reference. Newton's
// point must be stationary by its own test and by kktResidual, and — on
// the Lagrangian of Newton's final multipliers, which its point minimizes —
// never sit above the reference's. Objectives must agree within objTol
// relative and multipliers within dualTol, each widened by what the
// reference's own stationarity error r allows (r·‖Δx‖₁ by convexity, and 4r
// on a multiplier): FISTA stops on stagnation, and at any budget r stays at
// 1e-5…4e-4 on the curved programs (1e-3 on an LP), which is exactly how
// far its multipliers are from Newton's, whose residual is ~1e-10.
func checkAgreement(t *testing.T, p *Problem, rn, rf Result, feasTol, objTol, dualTol float64) {
	t.Helper()
	if !rn.Converged {
		t.Errorf("newton: stop %v after %d outer (σ %g, projgrad %g)", rn.Stop, rn.Outer, rn.Sigma, rn.ProjGrad)
	}
	if rn.ProjGrad > feasTol {
		t.Errorf("newton: projected gradient %g > %g", rn.ProjGrad, feasTol)
	}
	if k := kktResidual(p, rn); k > 100*feasTol*(1+math.Abs(rn.Objective)) {
		t.Errorf("newton: KKT residual %g", k)
	}
	r, dist := kktResidual(p, rf), 0.0
	for k := range rn.X {
		dist += math.Abs(rn.X[k] - rf.X[k])
	}
	if d := math.Abs(rn.Objective - rf.Objective); d > objTol*(1+math.Abs(rf.Objective))+r*dist {
		t.Errorf("objective %.12g vs fista %.12g (reference KKT residual %g, ‖Δx‖₁ %g)", rn.Objective, rf.Objective, r, dist)
	}
	for k := range rn.Duals {
		if d := math.Abs(rn.Duals[k] - rf.Duals[k]); d > dualTol*(1+math.Abs(rf.Duals[k]))+4*r {
			t.Errorf("dual[%d] = %.10g vs fista %.10g (reference KKT residual %g)", k, rn.Duals[k], rf.Duals[k], r)
		}
	}
	ln, lf := lagrangianAt(p, rn.X, rn.Duals, 8), lagrangianAt(p, rf.X, rn.Duals, 8)
	if ln > lf+1e-12*(1+math.Abs(lf)) {
		t.Errorf("Lagrangian at newton's point %.15g above fista's %.15g", ln, lf)
	}
}

// TestNewtonMatchesFista is the solver-vs-solver property test: on random
// programs, over full and pruned grids, the projected Newton inner solve
// and FISTA — which shares nothing with it but the Lagrangian — land on the
// same optimum and the same multipliers.
func TestNewtonMatchesFista(t *testing.T) {
	rng := rand.New(rand.NewSource(2017))
	for trial := 0; trial < 40; trial++ {
		pruned := trial%2 == 1
		p, _ := curvProgram(rng, pruned, curved)
		rn, rf := solveNewtonAndFista(t, p, tightNewtonOpts())
		if rn.Fallbacks != 0 {
			t.Errorf("trial %d: %d fallback steps on a program with curvature", trial, rn.Fallbacks)
		}
		if rn.InnerIters >= rf.InnerIters {
			t.Errorf("trial %d: newton took %d inner iterations, fista %d", trial, rn.InnerIters, rf.InnerIters)
		}
		checkAgreement(t, p, rn, rf, 1e-10, 1e-8, 1e-6)
		if t.Failed() {
			t.Fatalf("trial %d (I=%d J=%d pruned=%v) failed", trial, p.Groups.I, p.Groups.J, pruned)
		}
	}
}

// TestNewtonDegenerateCurvature runs the programs whose Hessian is
// singular but for the damping: no migration curvature with one weightless
// cloud (left out of S), and no curvature at all (an LP: S holds the active
// capacity rows only). The Newton step is then enormous along every
// direction the rows do not see, the projection arc clips it, and where
// the arc holds no acceptable point the scaled-gradient step takes over —
// seed 83 of the first class takes six such steps. Every program must
// still reach the reference optimum — the value only: without strict
// convexity neither the point nor the multipliers need be unique — and the
// fallbacks must be counted.
func TestNewtonDegenerateCurvature(t *testing.T) {
	opts := Options{MaxOuter: 300, InnerIters: 4000, FeasTol: 1e-8, DualTol: 1e-7, ObjTol: 1e-11}
	fallbacks := 0
	for seed := int64(80); seed < 100; seed++ {
		for _, class := range []int{noDiag, allLinear} {
			p, _ := curvProgram(rand.New(rand.NewSource(seed)), seed%2 == 1, class)
			rn, rf := solveNewtonAndFista(t, p, opts)
			checkAgreement(t, p, rn, rf, 1e-8, 1e-6, math.Inf(1))
			if t.Failed() {
				t.Fatalf("seed %d class %d failed", seed, class)
			}
			fallbacks += rn.Fallbacks
		}
	}
	if fallbacks == 0 {
		t.Error("no fallback step was taken (seed 83 used to take six)")
	}
}

// TestNewtonUnresolvedDescentReportsItsPoint asks for a stationarity no
// arithmetic delivers (FeasTol 1e-17), so every inner solve ends where both
// arcs hold nothing but rejected trials and newton returns the iterate it
// had, which is the point Objective and MaxViolation must describe.
func TestNewtonUnresolvedDescentReportsItsPoint(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p, _ := curvProgram(rand.New(rand.NewSource(seed)), seed%2 == 1, curved)
		res, err := Solve(p, Options{MaxOuter: 12, FeasTol: 1e-17})
		if err != nil {
			t.Fatal(err)
		}
		if res.Fallbacks == 0 {
			t.Errorf("seed %d: no arc was rejected (projected gradient %g)", seed, res.ProjGrad)
		}
		checkReadAtX(t, "newton", p, res)
	}
}

// TestCholSolve checks the factorization against a system with a known
// solution and its refusal of a matrix that is not positive definite.
func TestCholSolve(t *testing.T) {
	// S = L·Lᵀ with L = [[2,0,0],[1,3,0],[-1,2,1]]; only the lower triangle
	// is read. S·(1,−2,3)ᵀ = (−6, −3, 6)ᵀ.
	S := []float64{4, 99, 99, 2, 10, 99, -2, 5, 6}
	b := []float64{-6, -3, 6}
	if !cholSolve(S, b, 3) {
		t.Fatal("SPD matrix rejected")
	}
	for k, want := range []float64{1, -2, 3} {
		if math.Abs(b[k]-want) > 1e-12 {
			t.Errorf("x[%d] = %g, want %g", k, b[k], want)
		}
	}
	for _, bad := range [][]float64{{1, 0, 2, 1}, {1, 0, 1, 1}, {math.NaN(), 0, 0, 1}, {math.Inf(1), 0, 0, 1}} {
		if cholSolve(bad, []float64{1, 1}, 2) {
			t.Errorf("matrix %v accepted", bad)
		}
	}
}

// cholSolveRef is cholSolve one row at a time, each entry's subtractions
// in ascending k: the factorization the interleaved one must reproduce bit
// for bit.
func cholSolveRef(S, b []float64, m int) bool {
	for i := 0; i < m; i++ {
		ri := S[i*m : i*m+i+1]
		for j := 0; j <= i; j++ {
			rj := S[j*m : j*m+j+1]
			s := ri[j]
			for k := 0; k < j; k++ {
				s -= ri[k] * rj[k]
			}
			if j < i {
				ri[j] = s / rj[j]
				continue
			}
			if !(s > 0) || math.IsInf(s, 1) {
				return false
			}
			ri[i] = math.Sqrt(s)
		}
		s := b[i]
		for k := 0; k < i; k++ {
			s -= ri[k] * b[k]
		}
		b[i] = s / ri[i]
	}
	for i := m - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < m; k++ {
			s -= S[k*m+i] * b[k]
		}
		b[i] = s / S[i*m+i]
	}
	return true
}

// randomSPD returns an m×m SPD matrix shaped like Newton's Schur
// complement — a diagonal plus a sum of nonnegative rank-one terms, dense
// — in the row-major layout cholSolve reads, its upper triangle filled
// with junk it must not read, and a right-hand side.
func randomSPD(rng *rand.Rand, m int) (S, b []float64) {
	S, b = make([]float64, m*m), make([]float64, m)
	for r := 0; r < m; r++ {
		S[r*m+r] = 0.5 + rng.Float64()
		b[r] = 2*rng.Float64() - 1
		for c := r + 1; c < m; c++ {
			S[r*m+c] = math.NaN()
		}
	}
	v := make([]float64, m)
	for n := 0; n < 2*m; n++ {
		w := rng.Float64()
		for k := range v {
			v[k] = 0
			if rng.Intn(3) > 0 {
				v[k] = rng.Float64()
			}
		}
		for r := 0; r < m; r++ {
			for c := 0; c <= r; c++ {
				S[r*m+c] += w * v[r] * v[c]
			}
		}
	}
	return S, b
}

// TestCholSolveMatchesReference pins the interleaved factorization to the
// one-row-at-a-time reference: the same factor and solution bits on random
// SPD systems of every size up to 64 (every m mod 4, so blocks with each
// number of leftover rows), and the same verdict where a pivot is zero or
// negative or an entry is NaN or +Inf — in a four-row block, at each row of
// it, and in the leftover rows.
func TestCholSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3101))
	check := func(what string, S, b []float64, m int) bool {
		t.Helper()
		gotS, gotB := append([]float64(nil), S...), append([]float64(nil), b...)
		wantS, wantB := append([]float64(nil), S...), append([]float64(nil), b...)
		ok, want := cholSolve(gotS, gotB, m), cholSolveRef(wantS, wantB, m)
		if ok != want {
			t.Fatalf("%s: cholSolve says %v, reference %v", what, ok, want)
		}
		if !ok {
			return false
		}
		for r := 0; r < m; r++ {
			for c := 0; c <= r; c++ {
				if k := r*m + c; math.Float64bits(gotS[k]) != math.Float64bits(wantS[k]) {
					t.Fatalf("%s: L[%d][%d] = %v, reference %v", what, r, c, gotS[k], wantS[k])
				}
			}
			if math.Float64bits(gotB[r]) != math.Float64bits(wantB[r]) {
				t.Fatalf("%s: x[%d] = %v, reference %v", what, r, gotB[r], wantB[r])
			}
		}
		return true
	}
	accepted := 0
	for m := 1; m <= 64; m++ {
		for trial := 0; trial < 4; trial++ {
			S, b := randomSPD(rng, m)
			if !check(fmt.Sprintf("m=%d trial %d", m, trial), S, b, m) {
				t.Fatalf("m=%d trial %d: SPD matrix refused", m, trial)
			}
			accepted++
		}
	}
	refused := 0
	for _, m := range []int{1, 3, 4, 5, 8, 11, 13, 24} {
		for r := 0; r < m; r++ {
			c := rng.Intn(r + 1)
			for _, tc := range []struct {
				name string
				k    int
				v    float64
			}{
				{"zero pivot", r*m + r, 0},
				{"negative pivot", r*m + r, -1},
				{"NaN", r*m + c, math.NaN()},
				{"+Inf diagonal", r*m + r, math.Inf(1)},
				{"+Inf", r*m + c, math.Inf(1)},
				{"-Inf", r*m + c, math.Inf(-1)},
			} {
				S, b := randomSPD(rng, m)
				S[tc.k] = tc.v
				if !check(fmt.Sprintf("m=%d %s at row %d", m, tc.name, r), S, b, m) {
					refused++
				}
			}
		}
	}
	if refused == 0 {
		t.Errorf("%d systems accepted and none refused: the refusal path went unexercised", accepted)
	}
}

// BenchmarkCholSolve times the Schur factorization and solve at the
// average sizes Newton factors on the benchmark workloads: 11 (rome_exact),
// 24 (serve_stream), 44 (flagship_lowchurn) and 50 (flagship_full). Each
// operation includes copying the m×m system back in, which cholSolve
// overwrites.
func BenchmarkCholSolve(b *testing.B) {
	for _, m := range []int{11, 24, 44, 50} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			S0, b0 := randomSPD(rand.New(rand.NewSource(int64(m))), m)
			S, rhs := make([]float64, len(S0)), make([]float64, m)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				copy(S, S0)
				copy(rhs, b0)
				if !cholSolve(S, rhs, m) {
					b.Fatal("SPD matrix refused")
				}
			}
		})
	}
}

// TestNewtonSelectedByStructure pins the dispatch: Newton needs an
// objective with Curv; a bare gradient oracle is FISTA's.
func TestNewtonSelectedByStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base, _ := curvProgram(rng, false, curved)
	for _, tc := range []struct {
		name   string
		mutate func(p *Problem)
		newton bool
	}{
		{"structured", func(p *Problem) {}, true},
		{"gradient oracle", func(p *Problem) { p.Obj = fista.Func(p.Obj.Eval) }, false},
	} {
		p := *base
		tc.mutate(&p)
		res, err := Solve(&p, Options{MaxOuter: 3})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Newton != tc.newton {
			t.Errorf("%s: Newton = %v, want %v", tc.name, res.Newton, tc.newton)
		}
	}
}

// TestNewtonWorkspaceReuse runs one workspace through programs whose
// variable and row counts alternate between large and small, on both inner
// solvers, every other one right after a solve of it cancelled mid-way on
// the same workspace, and requires every result to match a fresh-workspace
// solve bit for bit — what a solve keeps about its iterate lives within
// one Solve — and a warm re-solve whose start aliases the previous result
// to stay as feasible.
func TestNewtonWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var small, large []*Problem
	for len(small) < 6 || len(large) < 6 {
		p, _ := curvProgram(rng, rng.Intn(3) == 1, curved)
		switch {
		case p.N <= 12 && p.Groups.NumRows() <= 8 && len(small) < 6:
			small = append(small, p)
		case p.N >= 24 && p.Groups.NumRows() >= 10 && len(large) < 6:
			large = append(large, p)
		}
	}
	var ws Workspace
	for trial := 0; trial < 12; trial++ {
		p := large[trial/2]
		if trial%2 == 1 {
			p = small[trial/2]
		}
		if trial%4 == 3 {
			hidden := *p
			hidden.Obj = fista.Func(p.Obj.Eval)
			p = &hidden
		}
		want, err := Solve(p, Options{MaxOuter: 6})
		if err != nil {
			t.Fatal(err)
		}
		if trial%2 == 1 {
			polls := 0
			cancelled := pollCtx{context.Background(), func() error {
				if polls++; polls > 2+trial%4 {
					return context.Canceled
				}
				return nil
			}}
			if _, err := Solve(p, Options{MaxOuter: 6, Workspace: &ws, Ctx: cancelled}); !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d: cancelled solve returned %v", trial, err)
			}
		}
		got, err := Solve(p, Options{MaxOuter: 6, Workspace: &ws})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(*got, *want); err != nil {
			t.Fatalf("trial %d (N %d, %d rows) on the shared workspace: %v", trial, p.N, p.Groups.NumRows(), err)
		}
		again, err := Solve(p, Options{MaxOuter: 6, Workspace: &ws, WarmX: got.X, WarmDuals: got.Duals})
		if err != nil {
			t.Fatal(err)
		}
		if again.MaxViolation > want.MaxViolation+1e-9 {
			t.Errorf("trial %d: warm re-solve violation %g", trial, again.MaxViolation)
		}
		if ws.Last() != again {
			t.Errorf("trial %d: Workspace.Last is not the last result", trial)
		}
	}
}

// FuzzNewtonVsFista is the inner solvers' differential fuzz: any program
// the generator can draw, of any curvature class, must come out of both
// with the same objective and, where strict convexity makes them unique,
// the same multipliers (fuzz headroom over TestNewtonMatchesFista's bars,
// as in internal/core's fuzz targets: the bound measures two independent
// convergence errors over arbitrary conditioning).
func FuzzNewtonVsFista(f *testing.F) {
	f.Add(int64(1), false, 0)
	f.Add(int64(2), true, 1)
	f.Add(int64(3), true, 2)
	f.Fuzz(func(t *testing.T, seed int64, pruned bool, class int) {
		class %= 3
		if class < 0 {
			class += 3
		}
		p, _ := curvProgram(rand.New(rand.NewSource(seed)), pruned, class)
		rn, rf := solveNewtonAndFista(t, p, tightNewtonOpts())
		if !rf.Converged {
			t.Skip("reference did not converge")
		}
		dualTol := 1e-4
		if class != curved {
			dualTol = math.Inf(1)
		}
		checkAgreement(t, p, rn, rf, 1e-10, 1e-6, dualTol)
	})
}

// TestDualStepRefusesSingularSystem solves programs whose capacity is
// exactly the demand, Λ = ΣC: every demand and every capacity row binds
// and the rows sum to zero. Their multipliers are determined up to a
// common shift, which the warm start sets high enough to keep every row
// active, so M = A·H_f⁻¹·Aᵀ — the Schur complement dualStep factors — is
// singular at every update. The second-order step must be refused each
// time, the update fall back to first order, and the solve converge to
// the point of a run that never tries it, bit for bit.
func TestDualStepRefusesSingularSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 8; trial++ {
		g := gridGroups(1, 2+rng.Intn(4), 2+rng.Intn(6), nil)
		n := len(g.Cols)
		o := &entropic{g: g, c: make([]float64, n), mg: make([]float64, n), p: make([]float64, n),
			rc: make([]float64, g.I), prevTot: make([]float64, g.I)}
		demand, capacity := make([]float64, g.J), make([]float64, g.I)
		for k, j := range g.Cols {
			v := 0.1 + rng.Float64()
			demand[j] += v
			capacity[k/g.J] += v
			o.c[k] = 3 * rng.Float64()
			o.mg[k] = 0.1 + rng.Float64()
			o.p[k] = rng.Float64()
			o.prevTot[k/g.J] += o.p[k]
		}
		g.Rows = g.Rows[:0]
		for j, d := range demand {
			g.Rows = append(g.Rows, GroupRow{Kind: GroupUserSum, Index: j, RHS: d})
		}
		for i, c := range capacity {
			o.rc[i] = rng.Float64()
			g.Rows = append(g.Rows, GroupRow{Kind: GroupCloudSumNeg, Index: i, RHS: -c})
		}
		p := &Problem{Obj: o, N: n, Groups: g}
		warm := make([]float64, len(g.Rows))
		for k := range warm {
			warm[k] = 100
		}
		opts := Options{MaxOuter: 200, FeasTol: 1e-8, WarmDuals: warm}
		r, err := Solve(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Converged || r.DualSteps != 0 || r.DualRefused == 0 {
			t.Errorf("trial %d (I=%d J=%d): converged %v after %d outer, %d second-order steps, %d refused",
				trial, g.I, g.J, r.Converged, r.Outer, r.DualSteps, r.DualRefused)
		}
		x := slices.Clone(r.X)
		firstOrderDuals = true
		ref, err := Solve(p, opts)
		firstOrderDuals = false
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits("x", x, ref.X); err != nil {
			t.Errorf("trial %d: %v against the first-order run", trial, err)
		}
		t.Logf("trial %d (I=%d J=%d): %d outer (first order %d), %d second-order steps, %d refused",
			trial, g.I, g.J, r.Outer, ref.Outer, r.DualSteps, r.DualRefused)
	}
}
