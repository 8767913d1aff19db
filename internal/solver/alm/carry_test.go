package alm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// pollCtx is a context whose Err runs poll each time the solver checks for
// cancellation — at the top of every outer iteration, so after the previous
// one's multiplier update, and once per inner iteration — and returns what
// poll returns. It lets a test look at the workspace between two steps of a
// Solve, or cancel one at a chosen step, without a hook in the solver.
type pollCtx struct {
	context.Context
	poll func() error
}

func (c pollCtx) Err() error { return c.poll() }

// checkIterate holds what the workspace keeps about the iterate ws.x — f in
// Result.Objective, ∇f in nt.gf, A·x in axI — to a fresh Lagrangian
// evaluation at ws.x, bit for bit, and then what the solver made of them:
// when the multipliers moved since the last poll (yPrev), the update that
// moved them must have read the iterate's A·x — the first-order update
// exactly, and a second-order one on the rows the first-order update leaves
// active only. A second-order step moves the iterate too; from is then the
// point it was taken at, whose A·x the update read (nil otherwise). When
// the multipliers did not move, the inner solve's gradient nt.g must be ∇L
// at the iterate under y and ρ.
func checkIterate(p *Problem, ws *Workspace, yPrev, from []float64) error {
	fresh := lagrangian{p: p, y: ws.y, rho: ws.lag.rho, ws: workspaceFor(p)}
	src, grad := make([]float64, p.N), make([]float64, p.N)
	fresh.eval(ws.x, src, grad)
	if err := sameBits("kept f", []float64{ws.res.Objective}, []float64{fresh.obj}); err != nil {
		return err
	}
	if err := sameBits("kept ∇f", ws.nt.gf, src); err != nil {
		return err
	}
	if err := sameBits("kept A·x", ws.axI, fresh.ws.ax); err != nil {
		return err
	}
	if sameBits("", ws.y, yPrev) != nil {
		second, read := from != nil, fresh.ws.ax
		if second {
			read = make([]float64, len(yPrev))
			p.Groups.axInto(from, read, &fresh.ws.gs)
		}
		want := make([]float64, len(yPrev))
		for k, a := range read {
			want[k] = math.Max(0, yPrev[k]+ws.lag.rho*(p.Groups.Rows[k].RHS-a))
			if second && want[k] > 0 {
				want[k] = ws.y[k]
			}
		}
		return sameBits("updated y", ws.y, want)
	}
	return sameBits("∇L", ws.nt.g, grad)
}

// sameBits reports the first entry where got and want differ in their bits.
func sameBits(what string, got, want []float64) error {
	for k, v := range want {
		if math.Float64bits(got[k]) != math.Float64bits(v) {
			return fmt.Errorf("%s[%d] %v, fresh %v", what, k, got[k], v)
		}
	}
	return nil
}

// TestNewtonCarriesTheIterate runs checkIterate at every cancellation poll
// of every Newton solve once the first evaluation is made — so before every
// warm entry of an inner solve and at every iteration of one — and holds
// Result.MaxViolation to the returned point. It runs the three curvature
// classes on full and pruned grids, TestNewtonDegenerateCurvature's
// programs, whose arcs reject trials and take the fallback, and programs of
// every class asked for TestNewtonUnresolvedDescentReportsItsPoint's
// unreachable stationarity, whose inner solves end on a failed fallback
// arc — on some of them after evaluating a trial, so that the last
// evaluation before a warm entry is not the iterate's; the test requires
// that to happen.
func TestNewtonCarriesTheIterate(t *testing.T) {
	type program struct {
		name string
		p    *Problem
		opts Options
	}
	var programs []program
	rng := rand.New(rand.NewSource(4099))
	for trial := 0; trial < 6; trial++ {
		for _, class := range []int{curved, noDiag, allLinear} {
			p, _ := curvProgram(rng, trial%2 == 1, class)
			programs = append(programs, program{fmt.Sprintf("trial %d class %d", trial, class), p, Options{MaxOuter: 60}})
		}
	}
	degenerate := Options{MaxOuter: 300, InnerIters: 4000, FeasTol: 1e-8, DualTol: 1e-7, ObjTol: 1e-11}
	for seed := int64(80); seed < 100; seed++ {
		for _, class := range []int{noDiag, allLinear} {
			p, _ := curvProgram(rand.New(rand.NewSource(seed)), seed%2 == 1, class)
			programs = append(programs, program{fmt.Sprintf("seed %d class %d", seed, class), p, degenerate})
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		for _, class := range []int{curved, noDiag, allLinear} {
			p, _ := curvProgram(rand.New(rand.NewSource(seed)), seed%2 == 1, class)
			programs = append(programs, program{fmt.Sprintf("unresolved seed %d class %d", seed, class), p, Options{MaxOuter: 12, FeasTol: 1e-17}})
		}
	}

	checks, afterRejected := 0, 0
	for _, pr := range programs {
		var ws Workspace
		var bad error
		var yPrev []float64
		var stepsPrev int
		last := &lastPoint{Curvature: pr.p.Obj.(Curvature)}
		traced := *pr.p
		traced.Obj = last
		opts := pr.opts
		opts.Workspace = &ws
		opts.Ctx = pollCtx{context.Background(), func() error {
			if bad != nil {
				return nil
			}
			if ws.res.Outer > 0 { // the first evaluation is made
				checks++
				if sameBits("", ws.x, last.x) != nil {
					afterRejected++
				}
				var from []float64
				if ws.res.DualSteps > stepsPrev {
					from = last.curv
				}
				bad = checkIterate(pr.p, &ws, yPrev, from)
			}
			yPrev = append(yPrev[:0], ws.y...)
			stepsPrev = ws.res.DualSteps
			return nil
		}}
		res, err := Solve(&traced, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Newton {
			t.Fatalf("%s: not solved by Newton", pr.name)
		}
		if bad != nil {
			t.Fatalf("%s: %v", pr.name, bad)
		}
		checkReadAtX(t, pr.name, pr.p, res)
	}
	if afterRejected == 0 {
		t.Errorf("%d checks, none after an inner solve ended on a rejected trial", checks)
	}
}

// lastPoint keeps a copy of the last point an objective evaluated with a
// gradient, and of the last point its curvature was read at: the point a
// second-order multiplier step is taken at.
type lastPoint struct {
	Curvature
	x, curv []float64
}

func (l *lastPoint) Curv(x, diag, cloud []float64) {
	l.curv = append(l.curv[:0], x...)
	l.Curvature.Curv(x, diag, cloud)
}

func (l *lastPoint) Eval(x, grad []float64) float64 {
	if grad != nil {
		l.x = append(l.x[:0], x...)
	}
	return l.Curvature.Eval(x, grad)
}

// sameResult reports the first way got differs from want, bit for bit.
func sameResult(got, want Result) error {
	if err := sameBits("x", got.X, want.X); err != nil {
		return err
	}
	if err := sameBits("dual", got.Duals, want.Duals); err != nil {
		return err
	}
	got.X, got.Duals, want.X, want.Duals = nil, nil, nil, nil
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("result %+v, fresh %+v", got, want)
	}
	return nil
}

// TestAddGradFromSource holds the gradient pass with ∇f in its own buffer
// to the in-place pass bit for bit, signed zeros included, on full and
// pruned grids, with and without demand rows: every entry of grad is
// written, and by the operation the in-place pass makes.
func TestAddGradFromSource(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 100; trial++ {
		g := randomGrid(rng, trial%2 == 1)
		if trial%4 == 3 {
			capacityOnly(g)
		}
		n := len(g.Cols)
		if err := g.validate(n); err != nil {
			t.Fatal(err)
		}
		src := make([]float64, n)
		for k := range src {
			switch rng.Intn(4) {
			case 0:
				src[k] = math.Copysign(0, -1)
			case 1:
				src[k] = 0
			default:
				src[k] = 4*rng.Float64() - 2
			}
		}
		mult := make([]float64, len(g.Rows))
		for k := range mult {
			mult[k] = 2 * rng.Float64() * float64(rng.Intn(2))
		}
		p := &Problem{N: n, Groups: g}
		ws := workspaceFor(p)
		want := append([]float64(nil), src...)
		g.addGrad(mult, want, want, &ws.gs)
		got := make([]float64, n)
		for k := range got {
			got[k] = math.NaN()
		}
		before := append([]float64(nil), src...)
		g.addGrad(mult, src, got, &ws.gs)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("trial %d: grad[%d] = %v from its own source, %v in place", trial, k, got[k], want[k])
			}
			if math.Float64bits(src[k]) != math.Float64bits(before[k]) {
				t.Fatalf("trial %d: src[%d] written", trial, k)
			}
		}
	}
}
