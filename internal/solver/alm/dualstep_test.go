package alm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// quadratic is an exactly quadratic objective over a Groups grid,
//
//	Σ_k d_k·(x_k − a_k)²/2 + Σ_i q_i·X_i²/2,   X_i cloud i's total,
//
// whose Curv is its Hessian at every point.
type quadratic struct {
	g       *Groups
	d, a, q []float64
}

func (o *quadratic) Eval(x, grad []float64) float64 {
	ptr, f := o.g.RowPtr, 0.0
	for i := 0; i < o.g.I; i++ {
		s := 0.0
		for _, v := range x[ptr[i]:ptr[i+1]] {
			s += v
		}
		f += o.q[i] * s * s / 2
		for k := ptr[i]; k < ptr[i+1]; k++ {
			r := x[k] - o.a[k]
			f += o.d[k] * r * r / 2
			if grad != nil {
				grad[k] = o.d[k]*r + o.q[i]*s
			}
		}
	}
	return f
}

func (o *quadratic) Curv(_, diag, cloud []float64) {
	copy(diag, o.d)
	copy(cloud, o.q)
}

// quadProgram draws a program over a full grid with a known optimum:
// x* > 0 everywhere, every demand row and the even clouds' capacity rows
// binding with positive multipliers, the odd clouds' capacity slack, and
// targets a_k chosen so that ∇f(x*) = Aᵀy*. It returns x* and y*.
func quadProgram(rng *rand.Rand) (p *Problem, xs, ys []float64) {
	g := gridGroups(1, 2+rng.Intn(4), 2+rng.Intn(6), nil)
	n := len(g.Cols)
	o := &quadratic{g: g, d: make([]float64, n), a: make([]float64, n), q: make([]float64, g.I)}
	xs, ys = make([]float64, n), make([]float64, g.J+g.I)
	demand, tot := make([]float64, g.J), make([]float64, g.I)
	for k, j := range g.Cols {
		xs[k] = 0.5 + rng.Float64()
		demand[j] += xs[k]
		tot[k/g.J] += xs[k]
		o.d[k] = 0.5 + rng.Float64()
	}
	g.Rows = g.Rows[:0]
	for j, w := range demand {
		g.Rows = append(g.Rows, GroupRow{Kind: GroupUserSum, Index: j, RHS: w})
		ys[j] = 0.5 + rng.Float64()
	}
	for i, c := range tot {
		o.q[i] = 0.2 * rng.Float64()
		if i%2 == 0 {
			ys[g.J+i] = 0.2 + 0.5*rng.Float64()
		} else {
			c = 1.5*c + 1
		}
		g.Rows = append(g.Rows, GroupRow{Kind: GroupCloudSumNeg, Index: i, RHS: -c})
	}
	for k, j := range g.Cols {
		i := k / g.J
		o.a[k] = xs[k] - (ys[j]-ys[g.J+i]-o.q[i]*tot[i])/o.d[k]
	}
	return &Problem{Obj: o, N: n, Groups: g}, xs, ys
}

// stepLog is what classifySteps saw of one solve.
type stepLog struct {
	res *Result
	// settled and unsettled count the second-order steps by whether the
	// first-order update they replaced kept every row's activity.
	settled, unsettled int
	// innerAtFirst is Result.InnerIters when the first step was taken (−1
	// if none was).
	innerAtFirst int
}

// classifySteps solves p under opts and sorts the second-order steps it took
// by the first-order update each replaced, recomputed bit for bit from the
// multipliers the update started from (the last poll's) and A·x at the point
// the step read its curvature at (lastPoint.curv).
func classifySteps(t *testing.T, p *Problem, opts Options) stepLog {
	t.Helper()
	var ws Workspace
	last := &lastPoint{Curvature: p.Obj.(Curvature)}
	traced := *p
	traced.Obj = last
	lg := stepLog{innerAtFirst: -1}
	var yPrev []float64
	ax, scratch := make([]float64, p.numRows()), workspaceFor(p)
	opts.Workspace = &ws
	opts.Ctx = pollCtx{context.Background(), func() error {
		if ws.res.DualSteps > lg.settled+lg.unsettled {
			if lg.innerAtFirst < 0 {
				lg.innerAtFirst = ws.res.InnerIters
			}
			p.axInto(last.curv, ax, &scratch.gs, 0)
			same := true
			for k, a := range ax {
				yFO := math.Max(0, yPrev[k]+ws.lag.rho*(p.rowRHS(k)-a))
				same = same && (yFO > 0) == (yPrev[k] > 0)
			}
			if same {
				lg.settled++
			} else {
				lg.unsettled++
			}
		}
		yPrev = append(yPrev[:0], ws.y...)
		return nil
	}}
	res, err := Solve(&traced, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Newton {
		t.Fatal("not solved by Newton")
	}
	lg.res = res
	return lg
}

// TestDualStepLandsOnKKTPoint takes the second-order step on programs whose
// objective is exactly quadratic and whose optimum is known, warm from nine
// tenths of the optimal multipliers so that the first update keeps the
// optimum's active set. The step is the Newton step of the KKT system on
// that set, primal and dual half, and on a quadratic it is exact: the solve
// takes no Newton iteration after it, and ends on the optimum. A step that
// moved the multipliers alone would leave the next inner solve x to
// re-converge.
func TestDualStepLandsOnKKTPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		p, xs, ys := quadProgram(rng)
		warm := make([]float64, len(ys))
		for k, y := range ys {
			warm[k] = 0.9 * y
		}
		lg := classifySteps(t, p, Options{WarmDuals: warm})
		name := fmt.Sprintf("trial %d (I=%d J=%d)", trial, p.Groups.I, p.Groups.J)
		if lg.settled == 0 || lg.unsettled != 0 {
			t.Fatalf("%s: %d settled and %d unsettled steps, want settled ones only", name, lg.settled, lg.unsettled)
		}
		if r := lg.res; !r.Converged || r.InnerIters != lg.innerAtFirst {
			t.Errorf("%s: converged %v after %d Newton iterations, %d of them before the first step",
				name, r.Converged, r.InnerIters, lg.innerAtFirst)
		}
		for k, v := range lg.res.X {
			if math.Abs(v-xs[k]) > 1e-12 {
				t.Errorf("%s: x[%d] = %.15g, optimum %.15g", name, k, v, xs[k])
			}
		}
		for k, v := range lg.res.Duals {
			if math.Abs(v-ys[k]) > 1e-12 {
				t.Errorf("%s: dual[%d] = %.15g, optimum %.15g", name, k, v, ys[k])
			}
		}
	}
}

// TestUnsettledStepsNeedBudget solves P2-shaped programs from cold
// multipliers, whose first update always changes activity. At the default
// budget the solves take the second-order step on such updates too, on the
// active set the update guessed (where the guess leaves the system
// nonsingular: a demand row whose user sits at the bound everywhere
// refuses it). At MaxOuter 3 — the shard blocks' budget — they must not: a
// wrong guess needs outer iterations to be corrected in, so an unsettled
// step is taken only while three follow it. The capped solves must still
// take settled steps.
func TestUnsettledStepsNeedBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	unsettled, capped := 0, 0
	for trial := 0; trial < 20; trial++ {
		p, _ := curvProgram(rng, false, curved)
		unsettled += classifySteps(t, p, Options{}).unsettled
		lg := classifySteps(t, p, Options{MaxOuter: 3})
		if lg.unsettled != 0 {
			t.Errorf("trial %d: MaxOuter 3 took %d unsettled steps", trial, lg.unsettled)
		}
		capped += lg.settled
	}
	if unsettled == 0 {
		t.Error("no default-budget solve took an unsettled step")
	}
	if capped == 0 {
		t.Error("no MaxOuter 3 solve took a settled step")
	}
	t.Logf("%d unsettled steps at the default budget, %d settled ones at MaxOuter 3", unsettled, capped)
}
