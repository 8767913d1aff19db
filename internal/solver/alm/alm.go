// Package alm implements an augmented-Lagrangian method for smooth convex
// minimization under sparse linear inequality constraints over the
// nonnegative orthant, the feasible set of every program of the paper:
//
//	minimize    f(x)
//	subject to  A_k·x ≥ b_k   for every row k
//	            x ≥ 0.
//
// Each outer iteration minimizes the augmented Lagrangian over x ≥ 0 and
// then updates the multiplier estimates; the converged multipliers are the
// dual variables of the constraints, which the competitive analysis of the
// paper's algorithm consumes directly (the θ'_{j,t} and ρ'_{i,t} of its KKT
// system). This package replaces the role of IPOPT in the paper's
// evaluation pipeline. The inner minimization has two solvers, chosen by
// the program's structure and by nothing a caller sets: the per-slot
// programs of the online algorithm — Groups rows and an objective that
// exposes its curvature — are solved by a projected Newton
// method (newton.go), second-order like IPOPT; every other program —
// generic gradient-oracle objectives such as the smoothed baselines', the
// sparse-row reference form — by FISTA (internal/solver/fista).
//
// What "converged" means here. With s_k = b_k − A_k·x and y the multipliers
// the outer iteration started from, the loop tracks
//
//	σ = max_k |max(s_k, −y_k/ρ)| / (1+|b_k|),
//
// the multiplier step |Δy_k|/ρ in row-scaled units: row k contributes its
// violation when violated and min(slack_k, y_k/ρ) when slack, so σ ≤ FeasTol
// says the point is primal-feasible and complementary to FeasTol whatever ρ
// the penalty schedule has reached. A solve is converged when σ ≤ FeasTol
// and the objective moved by at most ObjTol (relative) since the previous
// outer iteration (what f is read from: Result.Objective), or when the
// violation alone is within FeasTol and both the objective and the
// multipliers (DualTol, relative to 1+y_k) have settled. The penalty grows
// ×PenaltyGrowth whenever the violation fails to fall 4× in an outer
// iteration, and, once no row is violated, whenever σ does — provided the
// previous σ was above FeasTol too and, on the FISTA path, the inner solve
// took more than fista.StagnantLimit iterations: the signs that the stall
// is the method's rate and not the inner solver's noise floor. A Newton
// solve has no such floor — one that ends in two iterations is converged,
// not stalled — so the iteration clause is FISTA's alone.
//
// The multiplier update. y ← max(0, y+ρs) is gradient ascent on the
// augmented dual, and near the solution it shrinks the multiplier error by
// a steady factor per outer iteration. On the Newton path the update is
// instead the Newton step of the KKT system on the rows it keeps active,
// primal and dual half at once (newton.go's dualStep): x moves by the
// projected p and those rows' multipliers by w, where H_f·p − Aᵀ·w = −∇L
// and A·p = s, with H_f the objective's Hessian on the free variables. It
// is taken when the inner solve met its tolerance, the system can be
// factored and another outer iteration follows — on an active set the
// update changed (or, at the first, the warm multipliers') only while three
// do; Result.DualSteps and DualRefused count the steps taken and those
// refused on a singular system. The stop rule reads σ, the violation and
// the dual movement off the first-order update either way, and the loop
// ends on one, so Result.Duals are always the first-order update at X —
// the multipliers X is stationary for — and what Converged certifies does
// not depend on which update ran.
//
// What Converged certifies depends on the inner solver. The Newton solves
// stop on the projected-gradient norm ‖x − P(x − ∇L)‖∞ ≤ tol·(1+|L|), with
// tol following the 1e-5·0.2^k schedule but never looser than FeasTol (a
// warm-started solve converges in two or three outer iterations, and a
// point less stationary than it is feasible is not a solution: a shard
// block's x-step stopped at 1e-6 leaves the sharing-ADMM around it stalled
// at that residual), and the stop rule counts a projected gradient above
// FeasTol as an objective still moving. There Converged certifies
// feasibility, complementarity, a settled objective and stationarity, all
// to FeasTol, and Result.ProjGrad carries the last value. The FISTA solves
// stop on objective stagnation (see fista.Options.Tol), so on that path
// Converged certifies feasibility, complementarity and a settled objective,
// not a gradient-mapping norm.
package alm

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"

	"edgealloc/internal/solver/fista"
)

// Constraint is one sparse inequality row Σ_k Coeffs[k]·x[Idx[k]] ≥ RHS.
type Constraint struct {
	Idx    []int
	Coeffs []float64
	RHS    float64
}

// Problem is a smooth convex program over x ≥ 0 with GE rows. Rows are
// given either as generic sparse Cons or as structured group-sum Groups
// over a CSR grid (see groups.go) — never both. The structured form is
// the production path for the paper's programs; the sparse form is the
// reference implementation the property tests compare against.
type Problem struct {
	// Obj is the smooth convex objective (gradient oracle).
	Obj fista.Objective
	// N is the number of variables.
	N int
	// Cons are the inequality rows, all in A·x ≥ b form.
	Cons []Constraint
	// Groups optionally supplies the rows in structured group-sum form,
	// dropping the per-evaluation constraint cost from O(nnz) to
	// O(N + rows). Mutually exclusive with Cons. Groups.Rows[k] owns
	// Result.Duals[k], exactly like Cons[k] would.
	Groups *Groups
}

// numRows returns the dual dimension of the constraint set.
func (p *Problem) numRows() int {
	if p.Groups != nil {
		return p.Groups.NumRows()
	}
	return len(p.Cons)
}

// rowRHS returns b_k for row k.
func (p *Problem) rowRHS(k int) float64 {
	if p.Groups != nil {
		return p.Groups.Rows[k].RHS
	}
	return p.Cons[k].RHS
}

// axInto writes every row activity A_k·x into ax. The sparse path
// iterates nonzeros row by row (the reference semantics); the structured
// path derives activities from once-per-call group totals.
func (p *Problem) axInto(x, ax []float64, sc *groupScratch, workers int) {
	if p.Groups != nil {
		p.Groups.axInto(x, ax, sc, workers)
		return
	}
	for k, c := range p.Cons {
		s := 0.0
		for t, j := range c.Idx {
			s += c.Coeffs[t] * x[j]
		}
		ax[k] = s
	}
}

// addGrad writes grad = src − Σ_k mult[k]·A_k, skipping zero multipliers;
// src may be grad itself.
func (p *Problem) addGrad(mult, src, grad []float64, sc *groupScratch, workers int) {
	if p.Groups != nil {
		p.Groups.addGrad(mult, src, grad, sc, workers)
		return
	}
	copy(grad, src)
	for k, c := range p.Cons {
		m := mult[k]
		if m == 0 {
			continue
		}
		for t, j := range c.Idx {
			grad[j] -= m * c.Coeffs[t]
		}
	}
}

// Options tunes the outer loop. Zero values select defaults; Solve
// refuses what Validate does.
type Options struct {
	// MaxOuter bounds multiplier updates (default 80).
	MaxOuter int
	// InnerIters bounds the inner solver's iterations per subproblem, Newton
	// steps or FISTA iterations (default 1500).
	InnerIters int
	// Penalty is the initial quadratic penalty ρ (default 1).
	Penalty float64
	// PenaltyGrowth multiplies ρ when feasibility stalls (default 4).
	PenaltyGrowth float64
	// FeasTol is the absolute constraint-violation tolerance, scaled by
	// 1+|RHS| per row (default 1e-7).
	FeasTol float64
	// ObjTol is the relative objective-change tolerance across outer
	// iterations (default 1e-9).
	ObjTol float64
	// DualTol is the relative multiplier-movement tolerance across outer
	// iterations (default 1e-6); tighter values yield more accurate dual
	// variables at the cost of extra outer iterations.
	DualTol float64
	// WarmX optionally seeds the primal point (copied, not retained).
	WarmX []float64
	// WarmDuals optionally seeds the multipliers (copied, not retained).
	WarmDuals []float64
	// Workers bounds the goroutines used inside a single Lagrangian
	// evaluation when the problem supplies structured Groups rows (0 or 1
	// = serial). Parallelism is threshold-gated on problem size, chunks
	// are a pure function of the inputs, and partial results reduce in
	// index order, so results are byte-identical for any value.
	Workers int
	// Workspace optionally supplies reusable scratch buffers so repeated
	// solves of same-shaped problems (the per-slot P2 programs of a
	// horizon, the continuation stages of the smoothed baselines) allocate
	// nothing per call. When set, Result.X and Result.Duals alias
	// workspace memory and are only valid until the next Solve with the
	// same workspace; callers that retain them must copy. WarmX/WarmDuals
	// may alias the previous Result's slices. A workspace must not be
	// shared between concurrent solves.
	Workspace *Workspace
	// Ctx optionally makes the solve cancellable. It is polled once per inner
	// iteration of either solver and once per outer multiplier update; when
	// it fires, Solve returns an error wrapping ctx.Err().
	// The workspace buffers may hold a partial iterate afterwards, but the
	// caller-supplied WarmX/WarmDuals slices are never written, so warm
	// state owned by the caller survives a cancelled solve intact. Nil
	// means never cancelled. Polling does not perturb the math: results
	// are bitwise identical to an uncancelled run.
	Ctx context.Context
}

// Validate reports a negative or NaN budget or tolerance, and a nonzero
// PenaltyGrowth not above 1, as ErrBadProblem.
func (o Options) Validate() error {
	if o.MaxOuter < 0 || o.InnerIters < 0 || !(o.Penalty >= 0) ||
		!(o.FeasTol >= 0) || !(o.ObjTol >= 0) || !(o.DualTol >= 0) {
		return errf("MaxOuter=%d InnerIters=%d Penalty=%g FeasTol=%g ObjTol=%g DualTol=%g: want none negative",
			o.MaxOuter, o.InnerIters, o.Penalty, o.FeasTol, o.ObjTol, o.DualTol)
	}
	if g := o.PenaltyGrowth; g != 0 && !(g > 1) {
		return errf("PenaltyGrowth=%g, want above 1", g)
	}
	return nil
}

// Or returns o with every zero budget or tolerance taken from d — the
// zero-means-default rule callers apply before Solve. The per-call fields
// (warm starts, workspace, context) are o's.
func (o Options) Or(d Options) Options {
	o.MaxOuter = cmp.Or(o.MaxOuter, d.MaxOuter)
	o.InnerIters = cmp.Or(o.InnerIters, d.InnerIters)
	o.Penalty = cmp.Or(o.Penalty, d.Penalty)
	o.PenaltyGrowth = cmp.Or(o.PenaltyGrowth, d.PenaltyGrowth)
	o.FeasTol = cmp.Or(o.FeasTol, d.FeasTol)
	o.ObjTol = cmp.Or(o.ObjTol, d.ObjTol)
	o.DualTol = cmp.Or(o.DualTol, d.DualTol)
	o.Workers = cmp.Or(o.Workers, d.Workers)
	return o
}

// Workspace holds the primal iterate, multiplier, and row-activity
// buffers of a solve plus the inner solvers' workspaces and the structured-
// kernel scratch. The zero value is ready to use.
//
// ax and mult are the last Lagrangian evaluation's row activities and
// multiplier estimates; axI is A·x at the iterate, which the multiplier
// update reads. On the Newton path an accepted trial's ax trades places
// with axI, as its point does with x, so the iterate's activities outlive
// the rejected trials evaluated after it.
type Workspace struct {
	x, y     []float64
	ax, mult []float64
	axI      []float64
	gs       groupScratch
	inner    fista.Workspace
	nt       newtonScratch
	lag      lagrangian
	res      Result
}

// Last returns the outcome of the workspace's most recent Solve (the zero
// Result before any): the same value Solve returned, for callers that hold
// the workspace and not the result.
func (ws *Workspace) Last() *Result { return &ws.res }

// ensure sizes the buffers for n variables and m constraint rows.
func (ws *Workspace) ensure(n, m int) {
	if cap(ws.x) < n {
		ws.x = make([]float64, n)
	}
	ws.x = ws.x[:n]
	if cap(ws.y) < m {
		ws.y = make([]float64, m)
		ws.ax = make([]float64, m)
		ws.axI = make([]float64, m)
		ws.mult = make([]float64, m)
	}
	ws.y = ws.y[:m]
	ws.ax, ws.axI = ws.ax[:m], ws.axI[:m]
	ws.mult = ws.mult[:m]
}

// Result reports the outcome of a solve.
type Result struct {
	X []float64
	// Objective is f(X) — the original objective without penalty terms —
	// as the last outer iteration read it: from the gradient evaluation that
	// accepted X on the Newton path, from a value-only one at X on FISTA's.
	Objective float64
	// Duals are the nonnegative multipliers of the GE rows.
	Duals []float64
	// MaxViolation is max_k (b_k − A_k·X)⁺ scaled by 1+|b_k|.
	MaxViolation float64
	Outer        int
	InnerIters   int
	// Evals counts the solve's gradient evaluations of the objective: one
	// per FISTA iteration; on the Newton path the first inner solve's entry
	// evaluation, every arc trial and every new point a second-order step
	// moved to, later inner solves starting from the iterate evaluated
	// before them.
	Evals     int
	Converged bool
	// Stop says which test ended the outer loop, and Sigma, RelObjChange
	// and DualMove are the last outer iteration's values of the three
	// quantities the stop rule reads (see the package comment): the
	// feasibility-and-complementarity residual σ, the relative objective
	// change, and the largest multiplier step relative to 1+y_k.
	Stop                          Stop
	Sigma, RelObjChange, DualMove float64
	// Newton reports that the inner solves were the projected Newton
	// method's (newton.go) rather than FISTA's. ProjGrad is then the last
	// inner solve's projected-gradient norm ‖x − P(x − ∇L)‖∞ relative to
	// 1+|L| — how stationary X is for the final multipliers — and Fallbacks
	// counts the iterations, over the whole solve, that took the scaled-
	// gradient step because the Newton system could not be factored or its
	// arc held no acceptable point. Both are zero on the FISTA path.
	Newton    bool
	ProjGrad  float64
	Fallbacks int
	// DualSteps counts the multiplier updates that took dualStep's
	// second-order step and DualRefused those it refused on a singular
	// system, both over the whole solve; every other update is first
	// order. Both are zero on the FISTA path.
	DualSteps, DualRefused int
}

// Stop classifies how a solve ended: converged, or at MaxOuter with the
// first of the feasibility, objective and dual tests that was failing.
type Stop uint8

const (
	// StopNone is the zero value: no solve has been recorded.
	StopNone Stop = iota
	// StopConverged: the stop rule was met.
	StopConverged
	// StopFeasibility: at the cap with a row violated beyond FeasTol.
	StopFeasibility
	// StopObjective: at the cap, feasible, objective still moving — or, on
	// the Newton path, the point not yet stationary to FeasTol.
	StopObjective
	// StopDual: at the cap, feasible and the objective settled, but the
	// multipliers still moving (σ > FeasTol and DualMove > DualTol): some
	// slack row keeps a positive multiplier.
	StopDual
)

// stopNames are the reasons as text. The names, not the constants' numeric
// values, are what the session snapshot record and the serve reply store.
var stopNames = [...]string{
	StopNone:        "",
	StopConverged:   "converged",
	StopFeasibility: "feasibility",
	StopObjective:   "objective",
	StopDual:        "dual",
}

// String names the stop reason.
func (s Stop) String() string {
	if int(s) < len(stopNames) {
		return stopNames[s]
	}
	return ""
}

// MarshalText renders the reason by name, so encoding/json stores
// "objective" rather than 3 and the constants stay free to be reordered.
func (s Stop) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText is the inverse of MarshalText; an unknown name is an error.
func (s *Stop) UnmarshalText(text []byte) error {
	for k, name := range stopNames {
		if name == string(text) {
			*s = Stop(k)
			return nil
		}
	}
	return fmt.Errorf("alm: unknown stop reason %q", text)
}

// ErrBadProblem reports malformed input.
var ErrBadProblem = errors.New("alm: malformed problem")

// errf wraps ErrBadProblem with a formatted detail message.
func errf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadProblem, fmt.Sprintf(format, args...))
}

const maxPenalty = 1e9

// firstOrderDuals, set by tests, makes every multiplier update the first-
// order one.
var firstOrderDuals bool

// Solve runs the augmented-Lagrangian loop. The error is non-nil only for
// malformed input; lack of convergence is reported via Result.Converged.
func Solve(p *Problem, opts Options) (*Result, error) {
	if p.N <= 0 {
		return nil, fmt.Errorf("%w: N=%d", ErrBadProblem, p.N)
	}
	if p.Groups != nil {
		if len(p.Cons) > 0 {
			return nil, errf("both Cons (%d rows) and Groups (%d rows) set",
				len(p.Cons), p.Groups.NumRows())
		}
		if err := p.Groups.validate(p.N); err != nil {
			return nil, err
		}
	}
	for k, c := range p.Cons {
		if len(c.Idx) != len(c.Coeffs) {
			return nil, fmt.Errorf("%w: row %d has %d indices, %d coefficients",
				ErrBadProblem, k, len(c.Idx), len(c.Coeffs))
		}
		for _, j := range c.Idx {
			if j < 0 || j >= p.N {
				return nil, fmt.Errorf("%w: row %d references variable %d of %d",
					ErrBadProblem, k, j, p.N)
			}
		}
	}
	if opts.WarmX != nil && len(opts.WarmX) != p.N {
		return nil, fmt.Errorf("%w: len(WarmX)=%d, want %d", ErrBadProblem, len(opts.WarmX), p.N)
	}
	if opts.WarmDuals != nil && len(opts.WarmDuals) != p.numRows() {
		return nil, fmt.Errorf("%w: len(WarmDuals)=%d, want %d",
			ErrBadProblem, len(opts.WarmDuals), p.numRows())
	}

	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.Or(Options{MaxOuter: 80, InnerIters: 1500, Penalty: 1, PenaltyGrowth: 4, FeasTol: 1e-7, ObjTol: 1e-9, DualTol: 1e-6})
	maxOuter, innerIters, rho, growth := opts.MaxOuter, opts.InnerIters, opts.Penalty, opts.PenaltyGrowth
	feasTol, objTol, dualTol := opts.FeasTol, opts.ObjTol, opts.DualTol

	ws := opts.Workspace
	if ws == nil {
		// A zero-value local workspace reproduces the allocate-per-call
		// behaviour for one-shot callers; the result then owns its slices.
		ws = &Workspace{}
	}
	ws.ensure(p.N, p.numRows())
	if p.Groups != nil {
		ws.gs.ensure(p.Groups)
	}
	x := ws.x
	if opts.WarmX != nil {
		copy(x, opts.WarmX) // no-op when WarmX aliases the workspace
	} else {
		for k := range x {
			x[k] = 0
		}
	}
	y := ws.y
	if opts.WarmDuals != nil {
		copy(y, opts.WarmDuals)
		for k := range y {
			if y[k] < 0 {
				y[k] = 0
			}
		}
	} else {
		for k := range y {
			y[k] = 0
		}
	}

	res := &ws.res
	*res = Result{}
	ws.lag = lagrangian{p: p, y: y, rho: rho, ws: ws, workers: opts.Workers}
	lag := &ws.lag
	// The inner solver is a property of the program, not a setting: see
	// the package comment and newton.go.
	var cur Curvature
	if g := p.Groups; g != nil {
		if cur, res.Newton = p.Obj.(Curvature); res.Newton {
			ws.nt.ensure(p.N, g.I, g.J)
		}
	}

	prevObj := math.Inf(1)
	prevViol, prevSigma := math.Inf(1), math.Inf(1)
	innerTol := 1e-5
	for outer := 0; outer < maxOuter; outer++ {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("alm: aborted at outer iteration %d: %w", outer, err)
			}
		}
		res.Outer = outer + 1
		lag.rho = rho
		// moved reports an inner solve a steeper penalty could sharpen: any
		// Newton solve, which stops on stationarity, but a FISTA solve only
		// when it did not leave on its stagnation test at the first
		// opportunity (see the penalty rule below).
		var moved bool
		tol := min(innerTol, feasTol)
		if res.Newton {
			var err error
			if x, err = ws.newton(lag, cur, x, outer > 0, tol, innerIters, opts.Ctx); err != nil {
				return nil, err
			}
			moved = true
		} else {
			inner, err := fista.Minimize(lag, x, fista.Options{
				MaxIters: innerIters, Tol: innerTol, Workspace: &ws.inner, Ctx: opts.Ctx,
			})
			if err != nil {
				return nil, err
			}
			res.InnerIters += inner.Iters
			x, moved = inner.X, inner.Iters > fista.StagnantLimit
			// The point FISTA returns need not be the last one it evaluated.
			res.Objective = p.Obj.Eval(x, nil)
			p.axInto(x, ws.axI, &ws.gs, opts.Workers)
		}

		// Multiplier update with the three progress measures: the violation,
		// σ (the step |Δy_k|/ρ, row-scaled) and the relative dual movement.
		// It reads A·x at the iterate from axI, not the last evaluation's ax:
		// a Newton solve that ends on a rejected arc leaves a trial's there.
		// settled: no row changed activity since the previous outer iteration
		// (at the first, since the warm multipliers).
		viol, sigma, dualMove := 0.0, 0.0, 0.0
		settled := true
		for k, a := range ws.axI {
			rhs := p.rowRHS(k)
			s := rhs - a
			yNew := math.Max(0, y[k]+rho*s)
			settled = settled && (yNew > 0) == (y[k] > 0)
			step := math.Abs(yNew - y[k])
			if d := step / (1 + yNew); d > dualMove {
				dualMove = d
			}
			y[k] = yNew
			scale := 1 + math.Abs(rhs)
			if v := s / scale; v > viol {
				viol = v
			}
			if v := step / rho / scale; v > sigma {
				sigma = v
			}
		}

		obj := res.Objective
		relObjChange := math.Abs(obj-prevObj) / (1 + math.Abs(obj))
		prevObj = obj
		res.MaxViolation = viol
		res.Sigma, res.RelObjChange, res.DualMove = sigma, relObjChange, dualMove
		switch {
		case viol > feasTol:
			res.Stop = StopFeasibility
		case relObjChange > objTol || res.ProjGrad > feasTol:
			res.Stop = StopObjective
		case sigma > feasTol && dualMove > dualTol:
			res.Stop = StopDual
		default:
			res.Stop, res.Converged = StopConverged, true
		}
		if res.Converged {
			break
		}
		// The second-order step (see the package comment), never on the
		// last outer iteration: a solve its budget stops returns the
		// point and multipliers its last inner solve saw. A step on an active
		// set the update has just changed is a guess, taken only while three
		// outer iterations remain to correct it in.
		if res.Newton && (settled && outer+1 < maxOuter || outer+3 < maxOuter) && !(res.ProjGrad > tol) && !firstOrderDuals {
			if ws.dualStep(lag, cur, x) {
				res.DualSteps++
			} else {
				res.DualRefused++
			}
		}

		// Grow the penalty when the residual fails to fall 4×. While a row
		// is violated the residual watched is the violation: that row needs
		// a harder push, and multipliers left on slack rows are shed at ρ·
		// slack per update whatever the other rows do. Once the point is
		// feasible it is σ, which is then complementarity alone — an active
		// row approached from its slack side, the case a violation-only rule
		// never sees (viol = 0, ρ never grows, σ falls a few percent per
		// update). There ρ·s is also what turns the inner solver's noise
		// into dual movement, so a σ stall counts only when it is signal:
		// both this σ and the last one above tolerance (a rate needs two
		// samples; a σ that was within tolerance and stepped out again is
		// the endgame's wander), and an inner solve that moved. Once σ is
		// within tolerance ρ stays put.
		stalled := viol > 0.25*prevViol
		if viol <= feasTol {
			stalled = sigma > feasTol && prevSigma > feasTol && sigma > 0.25*prevSigma && moved
		}
		if stalled && rho < maxPenalty {
			rho *= growth
		}
		prevViol, prevSigma = viol, sigma
		if innerTol > 1e-10 {
			innerTol *= 0.2
		}
	}

	res.X, res.Duals = x, y
	return res, nil
}

// lagrangian evaluates the augmented Lagrangian
// f(x) + Σ_k h_ρ(y_k, s_k) with s_k = b_k − A_k·x and
// h_ρ(y, s) = (max(0, y+ρs)² − y²) / (2ρ),
// whose x-gradient is ∇f(x) − Σ_k max(0, y_k+ρ s_k)·A_k.
//
// Row activities come from Problem.axInto and the gradient scatter from
// Problem.addGrad, so the per-evaluation constraint cost is O(nnz) on the
// sparse reference path and O(N + rows) on the structured Groups path.
//
// An evaluation is f, ∇f and A·x at x, then penalize; only penalize reads
// y and ρ. FISTA's evaluations write ∇f into the gradient buffer and
// penalize it in place. Newton's write ∇f into a buffer of its own and
// penalize it into the gradient buffer in the same pass, so that, with f
// and A·x, it outlives the multiplier update: the next outer iteration
// penalizes the iterate's kept values under the new y and ρ instead of
// evaluating it again.
type lagrangian struct {
	p       *Problem
	y       []float64
	rho     float64
	ws      *Workspace
	workers int
	obj     float64 // f(x) of the last evaluation, without the penalty terms
}

var _ fista.Objective = (*lagrangian)(nil)

// Eval implements fista.Objective.
func (l *lagrangian) Eval(x, grad []float64) float64 { return l.eval(x, grad, grad) }

// eval evaluates L at x, writing ∇f into src and ∇L into grad (src may be
// grad; both nil for a value alone) and A·x into the workspace's ax.
func (l *lagrangian) eval(x, src, grad []float64) float64 {
	f := l.p.Obj.Eval(x, src)
	l.obj = f
	if grad != nil {
		l.ws.res.Evals++
	}
	l.p.axInto(x, l.ws.ax, &l.ws.gs, l.workers)
	return l.penalize(f, l.ws.ax, src, grad)
}

// penalize returns L from f and the row activities ax at a point, writing
// the multiplier estimates into the workspace's mult and, unless grad is
// nil, ∇L from ∇f = src into grad.
func (l *lagrangian) penalize(f float64, ax, src, grad []float64) float64 {
	mult := l.ws.mult
	for k := range ax {
		s := l.p.rowRHS(k) - ax[k]
		m := l.y[k] + l.rho*s
		if m > 0 {
			f += (m*m - l.y[k]*l.y[k]) / (2 * l.rho)
			mult[k] = m
		} else {
			f -= l.y[k] * l.y[k] / (2 * l.rho)
			mult[k] = 0
		}
	}
	if grad != nil {
		l.p.addGrad(mult, src, grad, &l.ws.gs, l.workers)
	}
	return f
}
