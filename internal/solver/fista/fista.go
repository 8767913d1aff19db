// Package fista implements the fast iterative shrinkage-thresholding
// algorithm (FISTA, Beck & Teboulle 2009) for minimizing a smooth convex
// function over the nonnegative orthant x ≥ 0, with backtracking line
// search and adaptive restart.
//
// It is the first-order inner solver of the augmented-Lagrangian method
// (internal/solver/alm), for the programs that give it nothing but a
// gradient oracle: the baselines' and the offline program's generic
// objectives. The per-slot programs of the online algorithm expose their
// curvature and are solved by alm's projected Newton method instead; alm's
// tests run this package on the same programs as an independent solver
// cross-checking the one that ships.
package fista

import (
	"context"
	"fmt"
	"math"
)

// Objective is a smooth convex function with a gradient oracle.
type Objective interface {
	// Eval returns f(x) and, when grad is non-nil, writes ∇f(x) into grad.
	// Implementations must not retain x or grad.
	Eval(x, grad []float64) float64
}

// Func adapts a plain function to the Objective interface.
type Func func(x, grad []float64) float64

// Eval implements Objective.
func (f Func) Eval(x, grad []float64) float64 { return f(x, grad) }

var _ Objective = Func(nil)

// Options configures a minimization run. The zero value picks sensible
// defaults (see Minimize).
type Options struct {
	// MaxIters bounds the number of accelerated iterations (default 2000).
	MaxIters int
	// Tol is the stagnation tolerance (default 1e-8): the run stops, with
	// Result.Converged set, once the relative objective change
	// |f(x_k) − f(x_{k+1})| / (1+|f(x_k)|) has stayed at or below Tol for
	// StagnantLimit (5) consecutive iterations. That is the only test —
	// there is no projected-gradient or gradient-mapping test — so Tol
	// bounds how fast the objective is still falling, not how far the
	// point is from stationary.
	Tol float64
	// Workspace optionally supplies reusable scratch buffers so repeated
	// solves of same-sized problems allocate nothing per call. When set,
	// Result.X (and the Result itself) alias workspace memory and are
	// only valid until the next Minimize call with the same workspace.
	// A workspace must not be shared between concurrent solves.
	Workspace *Workspace
	// Ctx optionally makes the iteration cancellable: it is polled once
	// per accelerated iteration (between objective sweeps, never inside
	// one) and Minimize returns an error wrapping ctx.Err() when it fires.
	// The workspace is left in a consistent-but-partial state; warm state
	// retained by callers (their own copies of iterates and multipliers)
	// is untouched because Minimize never writes through x0. Nil means
	// never cancelled. Polling does not perturb the math: results are
	// bitwise identical to an uncancelled run.
	Ctx context.Context
}

// Workspace holds the iterate, momentum, trial, and gradient buffers of a
// minimization run. The zero value is ready to use; buffers grow on
// demand and are reused across calls.
type Workspace struct {
	x, y, xNew, grad []float64
	res              Result
}

// ensure sizes every buffer to n, reusing capacity where possible.
func (ws *Workspace) ensure(n int) {
	if cap(ws.x) < n {
		ws.x = make([]float64, n)
		ws.y = make([]float64, n)
		ws.xNew = make([]float64, n)
		ws.grad = make([]float64, n)
	}
	ws.x = ws.x[:n]
	ws.y = ws.y[:n]
	ws.xNew = ws.xNew[:n]
	ws.grad = ws.grad[:n]
}

// Result reports the outcome of a minimization.
type Result struct {
	X     []float64
	F     float64
	Iters int
	// Converged reports that the run ended on the stagnation test of
	// Options.Tol (or with the step below its floor) rather than at
	// MaxIters. A run warm-started where steps are tiny — a steep penalty
	// term, say — stagnates after StagnantLimit iterations wherever it is.
	Converged bool
}

const (
	backtrackShrink = 0.5
	// stepGrow re-expands the step after every accepted iteration so the
	// search tracks the local curvature from below. 1.3 spends roughly one
	// failed trial evaluation every other iteration; gentler factors waste
	// fewer trials per iteration but recover so slowly after a restart
	// shrink that convergence needs measurably more iterations overall.
	stepGrow = 1.3
	minStep  = 1e-18
	// StagnantLimit is the number of consecutive iterations with relative
	// objective change below Tol required to declare convergence; a single
	// flat step is not trusted because accelerated methods are
	// non-monotone between restarts.
	StagnantLimit = 5
)

// Minimize runs FISTA over x ≥ 0 from x0, projected onto x ≥ 0 first, and
// returns the best point found. x0 is not modified (it may alias
// Options.Workspace memory from a previous call; the copy into the
// workspace handles that overlap). The error is non-nil only when
// Options.Ctx fires.
func Minimize(obj Objective, x0 []float64, opts Options) (*Result, error) {
	n := len(x0)
	maxIters := opts.MaxIters
	if maxIters <= 0 {
		maxIters = 2000
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-8
	}

	ws := opts.Workspace
	if ws == nil {
		// Per-call buffers: the result may outlive the call, so x must be
		// freshly owned. A zero-value local workspace gives exactly that.
		ws = &Workspace{}
	}
	ws.ensure(n)
	step := 1.0
	x := ws.x
	copy(x, x0) // no-op when x0 already aliases ws.x (warm restart)
	for j, v := range x {
		if v < 0 {
			x[j] = 0
		}
	}
	y := ws.y
	copy(y, x)
	xNew := ws.xNew
	grad := ws.grad

	res := &ws.res
	*res = Result{}
	fx := obj.Eval(x, nil)
	tMom := 1.0
	stagnant := 0 // consecutive iterations with negligible objective change

	for it := 0; it < maxIters; it++ {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("fista: aborted after %d iterations: %w", it, err)
			}
		}
		res.Iters = it + 1
		fy := obj.Eval(y, grad)

		// Backtracking: find step s with sufficient decrease from y. The
		// quadratic upper-bound terms of the FISTA condition are
		// accumulated in the same pass that writes the projected trial
		// point (they depend only on y, grad, and xNew, not on fNew), so a
		// trial costs one fused O(n) sweep plus the objective evaluation.
		var fNew float64
		for {
			q := fy
			dd := 0.0
			for j, yj := range y {
				v := yj - step*grad[j]
				if v < 0 {
					v = 0
				}
				xNew[j] = v
				d := v - yj
				q += grad[j] * d
				dd += d * d
			}
			q += dd / (2 * step)
			fNew = obj.Eval(xNew, nil)
			if fNew <= q+1e-12*(1+math.Abs(q)) {
				break
			}
			step *= backtrackShrink
			if step < minStep {
				// Gradient is numerically zero or the objective is not
				// smooth here; accept the current point.
				copy(xNew, y)
				fNew = fy
				break
			}
		}

		relDrop := math.Abs(fx-fNew) / (1 + math.Abs(fx))
		if relDrop <= tol {
			stagnant++
		} else {
			stagnant = 0
		}

		// Adaptive restart on objective increase (O'Donoghue & Candès):
		// discard the non-monotone step and retry plain gradient from x.
		if fNew > fx {
			tMom = 1
			copy(y, x)
			step *= backtrackShrink
			if stagnant >= StagnantLimit || step < minStep {
				res.Converged = true
				break
			}
			continue
		}

		tNext := (1 + math.Sqrt(1+4*tMom*tMom)) / 2
		beta := (tMom - 1) / tNext
		for j, v := range xNew {
			m := v + beta*(v-x[j])
			if m < 0 {
				m = 0
			}
			y[j] = m
		}
		tMom = tNext
		copy(x, xNew)
		fx = fNew
		step *= stepGrow

		if stagnant >= StagnantLimit {
			res.Converged = true
			break
		}
	}

	res.X = x
	res.F = fx
	return res, nil
}
