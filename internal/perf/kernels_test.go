package perf

import (
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/numkernel"
	"edgealloc/internal/scenario"
	"edgealloc/internal/solver/alm"
	"edgealloc/internal/solver/fista"
)

// Each kernel constructor does its set-up once and returns the operation
// one benchmark iteration (and one TestHotPathAllocs run) executes.

// kernel is one named micro-kernel operation and the allocation count
// TestHotPathAllocs pins it at.
type kernel struct {
	name   string
	op     func()
	allocs float64
}

// fistaDim is the variable count of the FISTA kernel — the I·J of a
// 15-cloud, 40-user slot problem.
const fistaDim = 600

// quadObjective is a strongly convex separable quadratic
// Σ c_k (x_k − a_k)², the cheapest representative objective: with
// near-free Evals, per-call allocation overhead dominates the
// measurement, which is exactly what these kernels track.
type quadObjective struct {
	c, a []float64
}

func (q *quadObjective) Eval(x, grad []float64) float64 {
	f := 0.0
	for k := range x {
		d := x[k] - q.a[k]
		f += q.c[k] * d * d
		if grad != nil {
			grad[k] = 2 * q.c[k] * d
		}
	}
	return f
}

func newQuad(n int) (*quadObjective, []float64) {
	q := &quadObjective{c: make([]float64, n), a: make([]float64, n)}
	for k := 0; k < n; k++ {
		// Deterministic, irregular coefficients; no RNG needed.
		q.c[k] = 1 + float64(k%7)/3
		q.a[k] = float64((k*2689+13)%100) / 25
	}
	return q, make([]float64, n)
}

// fistaSolve is the FISTASolve kernel: a box-constrained minimization of
// a fixed quadratic reusing one workspace.
func fistaSolve(tb testing.TB) func() {
	q, lower := newQuad(fistaDim)
	x0 := make([]float64, fistaDim)
	var ws fista.Workspace
	return func() {
		res, err := fista.Minimize(q, x0, fista.Options{
			MaxIters: 200, Lower: lower, Workspace: &ws,
		})
		if err != nil {
			tb.Fatal(err)
		}
		if res.F < 0 {
			tb.Fatal("negative quadratic")
		}
	}
}

// almSolve is the ALMSolve kernel: a constrained solve of a quadratic
// under demand-style GE rows, reusing one workspace and warm-starting
// from the previous solution like the per-slot loops do.
func almSolve(tb testing.TB) func() {
	const n, rows = fistaDim, 40
	q, lower := newQuad(n)
	cons := make([]alm.Constraint, rows)
	per := n / rows
	for r := 0; r < rows; r++ {
		idx := make([]int, per)
		coef := make([]float64, per)
		for k := 0; k < per; k++ {
			idx[k] = r*per + k
			coef[k] = 1
		}
		cons[r] = alm.Constraint{Idx: idx, Coeffs: coef, RHS: float64(per) * 2.5}
	}
	prob := &alm.Problem{Obj: q, N: n, Lower: lower, Cons: cons}
	var ws alm.Workspace
	opts := alm.Options{MaxOuter: 20, InnerIters: 300, FeasTol: 1e-6, Workspace: &ws}
	return func() {
		res, err := alm.Solve(prob, opts)
		if err != nil {
			tb.Fatal(err)
		}
		opts.WarmX = res.X
		opts.WarmDuals = res.Duals
	}
}

// stepKernel is the OnlineApproxStep kernel: warm per-slot Step calls of
// the paper's algorithm on a fixed Rome instance — the steady-state hot
// path of an online deployment. Slot 0 (which builds the per-instance
// caches and solves a transportation problem for its warm start) belongs
// to prime, which callers keep off the clock and off the count.
type stepKernel struct {
	tb  testing.TB
	in  *model.Instance
	alg *core.OnlineApprox
	t   int // next slot to step
}

func newStepKernel(tb testing.TB) *stepKernel {
	in, _, err := scenario.Rome(scenario.Config{Users: 20, Horizon: 8, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	k := &stepKernel{tb: tb, in: in}
	k.prime()
	return k
}

// prime starts a fresh horizon and runs its slot 0.
func (k *stepKernel) prime() {
	k.alg = core.NewOnlineApprox(k.in, core.Options{Solver: alm.Options{
		MaxOuter: 30, InnerIters: 400,
		FeasTol: 1e-6, DualTol: 1e-3, ObjTol: 1e-7, Penalty: 2}})
	k.t = 0
	k.step()
}

func (k *stepKernel) step() {
	if _, err := k.alg.Step(k.t); err != nil {
		k.tb.Fatal(err)
	}
	k.t++
}

// The NumKernel family runs the batch log kernel behind
// core.Options.FastMath in isolation, over one cache-resident buffer of
// solver-typical operands. LogStdlib is the per-element math.Log loop
// the batch kernel replaces, so LogStdlib/LogBatch is the raw
// per-element win before any solver-level effects (reciprocal
// precompute, cache-traffic elimination) stack on top.

// numKernelLen is the element count of every NumKernel buffer: a J-row
// of the flagship size, comfortably L1/L2-resident so the kernels
// measure arithmetic throughput, not memory.
const numKernelLen = 4096

const numKernelSeed = 20140212

// numKernels lists the NumKernel family by sub-benchmark name.
func numKernels() []kernel {
	// Solver-typical log operands: migration ratios (x+ε₂)/(x'+ε₂)
	// concentrate within a few decades of 1.
	rng := rand.New(rand.NewSource(numKernelSeed))
	ratios := make([]float64, numKernelLen)
	for i := range ratios {
		ratios[i] = math.Exp(6 * (rng.Float64() - 0.5))
	}
	dst := make([]float64, numKernelLen)
	return []kernel{
		{"LogBatch", func() { numkernel.LogBatch(dst, ratios) }, 0},
		{"LogStdlib", func() {
			for i, x := range ratios {
				dst[i] = math.Log(x)
			}
		}, 0},
	}
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op()
	}
}

func BenchmarkFISTASolve(b *testing.B) { benchOp(b, fistaSolve(b)) }
func BenchmarkALMSolve(b *testing.B)   { benchOp(b, almSolve(b)) }

func BenchmarkOnlineApproxStep(b *testing.B) {
	k := newStepKernel(b)
	benchOp(b, func() {
		if k.t == k.in.T {
			b.StopTimer()
			k.prime()
			b.StartTimer()
		}
		k.step()
	})
}

// BenchmarkNumKernel exposes the fast-math kernel family; use
// -bench 'NumKernel/LogBatch$' to pick one kernel.
func BenchmarkNumKernel(b *testing.B) {
	for _, k := range numKernels() {
		b.Run(k.name, func(b *testing.B) { benchOp(b, k.op) })
	}
}

// TestHotPathAllocs pins the allocation count of one operation of every
// kernel. The counts are deterministic, so they are today's values, not
// ceilings with slack: raise one only with a comment naming the
// toolchain in the CI matrix that differs.
func TestHotPathAllocs(t *testing.T) {
	step := newStepKernel(t)
	kernels := append([]kernel{
		{"OnlineApproxStep", step.step, 1},
		{"FISTASolve", fistaSolve(t), 0},
		{"ALMSolve", almSolve(t), 0},
	}, numKernels()...)
	// AllocsPerRun makes one uncounted warm-up call, which together with
	// slot 0 in prime leaves T−2 warm Steps of the horizon to count.
	runs := step.in.T - 2
	for _, k := range kernels {
		if got := testing.AllocsPerRun(runs, k.op); got != k.allocs {
			t.Errorf("%s: %v allocs/op, pinned at %v", k.name, got, k.allocs)
		}
	}
}
