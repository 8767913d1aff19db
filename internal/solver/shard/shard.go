// Package shard implements the user-sharded dual-decomposition layer of
// the per-slot program P2 (DESIGN.md §7e). P2's objective and constraints
// couple users only through the I-dimensional vector of per-cloud totals
// X_i = Σ_j x_ij: the static and migration terms and the demand rows are
// separable per user, while the reconfiguration regularizer φ_i(X_i), the
// complement rows Σ_{k≠i} X_k ≥ (Λ−C_i)⁺, and the capacity rows
// X_i ≤ C_i read only the totals. Splitting the J users into S shards
// therefore splits P2 into S independent subproblems tied together by one
// small consensus program:
//
//	minimize   Σ_s f_s(x^s) + g(Σ_s T^s(x^s))
//	subject to demand rows and x ≥ 0 inside each shard,
//
// where T^s(x^s) ∈ R^I are shard s's cloud totals, f_s collects its
// users' static and migration-entropy terms, and g(Z) = Σ_i φ_i(Z_i) plus
// the indicator of the complement/capacity rows on Z.
//
// The Coordinator runs the scaled sharing-ADMM of Boyd et al. (§7.3) on
// this split. Each outer iteration:
//
//  1. x-step: every shard minimizes f_s(x^s) + (ρ/2)·Σ_i (T_i^s(x^s) −
//     c_i^s)² over its demand rows, in parallel, warm-started from its
//     previous iterate; the targets c^s = T^s + (Z − X̂)/S − u differ
//     across shards only by their own previous totals.
//  2. z-step: one I-dimensional solve of g(Z) + (ρ/2S)·‖Z − (X̂+S·u)‖²
//     under the complement/capacity rows, using the same structured
//     group kernels (an I×1 grid) and a warm ALM workspace. Its row
//     multipliers converge to the complement (ρ'_i) and capacity (ν'_i)
//     duals of the full program.
//  3. price update: u ← u + (X̂ − Z)/S. The per-cloud capacity price
//     every shard trades against is π = ρ·u; at a fixed point each
//     shard's penalty gradient equals π, which together with the z-step's
//     stationarity reproduces the full problem's KKT system (the same
//     identity the candidate-set pricing pass of internal/core consumes).
//
// Termination is dual-certified: the loop stops when the consensus
// residual max_i |X̂_i − Z_i|/(1+|X̂_i|) — which bounds the assembled
// schedule's capacity violation, because Z is feasible for the capacity
// rows by construction — and the z-iterate movement (the ADMM dual
// residual) both fall under their tolerances.
//
// Determinism: shard solves within an iteration are independent and
// their totals reduce in shard index order, so results are byte-identical
// for any Options.Workers value; the whole loop is a pure function of its
// inputs, so repeated runs are bitwise reproducible for any shard count.
package shard

import (
	"context"
	"fmt"
	"math"
	"time"

	"edgealloc/internal/solver/alm"
	"edgealloc/internal/solver/par"
)

// Range is one shard's contiguous user interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// Len returns the number of users in the shard.
func (r Range) Len() int { return r.Hi - r.Lo }

// Partition splits J users into min(S, J) contiguous shards whose sizes
// differ by at most one, in ascending user order. The split is a pure
// function of (J, S), so a partition is reproducible across processes —
// the property that lets shards later live on separate edged replicas.
func Partition(J, S int) []Range {
	if S > J {
		S = J
	}
	if S < 1 {
		S = 1
	}
	out := make([]Range, S)
	for s := 0; s < S; s++ {
		out[s] = Range{Lo: s * J / S, Hi: (s + 1) * J / S}
	}
	return out
}

// Block is one shard's local subproblem, implemented by the caller. A
// Block owns its packed variables, demand rows, objective state, and warm
// iterate; the Coordinator only ever talks to it through per-cloud
// totals and the consensus penalty.
type Block interface {
	// Solve minimizes the block's local objective plus the consensus
	// penalty (rho/2)·Σ_i (T_i(x) − target_i)² from the block's retained
	// warm state, retains the solution as the next warm state, and writes
	// the solution's per-cloud totals into totals (length I). It reports
	// the ALM outer and FISTA inner iteration counts of the solve.
	Solve(rho float64, target, totals []float64) (outer, inner int, err error)

	// WarmTotalsInto writes the per-cloud totals of the block's current
	// warm point — the state a Solve would start from.
	WarmTotalsInto(totals []float64)
}

// Coupling is the data of the coordination (cloud-total) problem: the
// reconfiguration regularizer φ_i(Z_i) = RcFac_i·((Z_i+ε₁)·ln((Z_i+ε₁)/
// (PrevTot_i+ε₁)) − Z_i) and the complement/capacity row geometry. The
// slices are retained, not copied: callers rebind PrevTot's contents at
// every slot (the previous decision's totals change) without rebuilding
// the coordinator.
type Coupling struct {
	RcFac    []float64 // per-cloud wRc·c_i/η_i
	PrevTot  []float64 // X'_i, rebound per slot by the caller
	Eps1     float64
	Capacity []float64 // C_i: capacity rows Z_i ≤ C_i
	ComplRHS []float64 // (Λ−C_i)⁺: complement rows Σ_{k≠i} Z_k ≥ RHS_i
}

// Options tunes the coordination loop. Zero values select defaults.
type Options struct {
	// Rho is the ADMM consensus penalty (default 4). Larger values pin
	// shards to their targets and slow consensus movement; smaller values
	// enforce the coupling weakly. The price each shard trades against is
	// ρ·u, so ρ also scales how fast prices move per iteration.
	Rho float64
	// MaxIters bounds coordination iterations per Solve (default 60).
	MaxIters int
	// PrimalTol is the consensus-residual tolerance max_i |X̂_i − Z_i| /
	// (1+|X̂_i|) (default 1e-8). Because Z satisfies the capacity rows by
	// construction, the primal residual bounds the assembled schedule's
	// relative capacity violation.
	PrimalTol float64
	// DualTol is the tolerance on the ADMM dual residual
	// (ρ/S)·max_i |Z_i − Z_i^prev| / (1+|Z_i|) (default 1e-6). The
	// normalization is by the consensus variable's own scale: totals are
	// O(capacity) while prices are O(gradient), so a price-relative
	// measure would read block-budget jitter as permanent non-convergence
	// under throughput-tuned (inexact) block solves.
	DualTol float64
	// Workers bounds concurrently solving blocks (<= 1 solves serially).
	// Totals reduce in shard index order, so results are byte-identical
	// for any value.
	Workers int
	// Solver is the ALM budget of the I-dimensional z-step. Zero fields
	// take defaults sized for the tiny program (MaxOuter 40, InnerIters
	// 300, FeasTol 1e-9, DualTol 1e-7).
	Solver alm.Options
	// Ctx optionally cancels the loop between iterations and inside the
	// block/z solves; Solve then returns an error wrapping ctx.Err().
	Ctx context.Context
}

func (o Options) withDefaults() Options {
	if o.Rho <= 0 {
		o.Rho = 4
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 60
	}
	if o.PrimalTol <= 0 {
		o.PrimalTol = 1e-8
	}
	if o.DualTol <= 0 {
		o.DualTol = 1e-6
	}
	o.Solver = o.Solver.Or(alm.Options{MaxOuter: 40, InnerIters: 300, FeasTol: 1e-9, DualTol: 1e-7})
	return o
}

// Result reports one slot's coordination outcome. The slices alias
// coordinator scratch and are only valid until the next Solve.
type Result struct {
	// Iters is the number of coordination (outer dual-ascent) iterations.
	Iters int
	// Converged reports whether both residual tolerances were met.
	Converged bool
	// MaxResidual is the final consensus residual — the bound on the
	// assembled schedule's relative capacity violation.
	MaxResidual float64
	// Totals are the assembled per-cloud totals X̂ = Σ_s T^s.
	Totals []float64
	// RhoDuals and NuDuals are the converged multipliers of the
	// complement and capacity rows, in the same per-cloud order the
	// unsharded solve records them.
	RhoDuals, NuDuals []float64
	// Prices are the per-cloud coordination prices π = ρ·u at exit.
	Prices []float64
	// BlockSeconds is each block's cumulative solve wall-time.
	BlockSeconds []float64
	// BlockOuter and BlockInner sum the shards' ALM outer and FISTA
	// inner iterations; ZOuter and ZInner count the z-step's.
	BlockOuter, BlockInner int
	ZOuter, ZInner         int
}

// Coordinator runs the sharing-ADMM loop over a fixed set of blocks.
// Warm state (prices, z-iterate, z duals) persists across slots through
// the BeginSlot/Solve/CommitSlot protocol: BeginSlot copies the warm
// state into working buffers, Solve (possibly several rounds, when the
// caller's pricing pass expands candidate sets between rounds) advances
// the working state, and CommitSlot promotes it. A slot aborted before
// CommitSlot — a cancelled context — leaves the warm state exactly as
// the last committed slot wrote it, mirroring the unsharded solver's
// cancellation contract. A Coordinator must not be shared between
// goroutines.
type Coordinator struct {
	nI     int
	blocks []Block
	cpl    Coupling
	opts   Options

	// Committed warm state (promoted by CommitSlot).
	uWarm     []float64
	zWarm     []float64
	zDualWarm []float64
	hasWarm   bool

	// Working state (seeded by BeginSlot).
	u, z, zPrev []float64
	zDuals      []float64

	totals  []float64 // S×I per-block totals
	xbar    []float64 // assembled totals X̂
	target  []float64 // S×I x-step targets
	v       []float64 // z-step prox center X̂ + S·u
	secs    []float64 // per-block cumulative solve seconds
	outerS  []int     // per-block ALM outers (reduced in index order)
	innerS  []int
	errS    []error
	prices  []float64
	zobj    zObjective
	zgroups alm.Groups
	zlower  []float64
	zws     alm.Workspace
	res     Result
}

// NewCoordinator builds a coordinator over the blocks. The Coupling
// slices are retained (see Coupling); opts.Ctx may be replaced per slot
// via Solve's context parameter.
func NewCoordinator(nI int, blocks []Block, cpl Coupling, opts Options) *Coordinator {
	opts = opts.withDefaults()
	S := len(blocks)
	c := &Coordinator{
		nI:        nI,
		blocks:    blocks,
		cpl:       cpl,
		opts:      opts,
		uWarm:     make([]float64, nI),
		zWarm:     make([]float64, nI),
		zDualWarm: make([]float64, 2*nI),
		u:         make([]float64, nI),
		z:         make([]float64, nI),
		zPrev:     make([]float64, nI),
		zDuals:    make([]float64, 2*nI),
		totals:    make([]float64, S*nI),
		xbar:      make([]float64, nI),
		target:    make([]float64, S*nI),
		v:         make([]float64, nI),
		secs:      make([]float64, S),
		outerS:    make([]int, S),
		innerS:    make([]int, S),
		errS:      make([]error, S),
		prices:    make([]float64, nI),
		zlower:    make([]float64, nI),
	}
	// The z program is an I×1 grid, so the complement and capacity rows
	// reuse the structured group kernels: row i of the grid is Z_i.
	rows := make([]alm.GroupRow, 0, 2*nI)
	for i := 0; i < nI; i++ {
		rows = append(rows, alm.GroupRow{Kind: alm.GroupComplement, Index: i, RHS: cpl.ComplRHS[i]})
	}
	for i := 0; i < nI; i++ {
		rows = append(rows, alm.GroupRow{Kind: alm.GroupCloudSumNeg, Index: i, RHS: -cpl.Capacity[i]})
	}
	c.zgroups = alm.Groups{I: nI, J: 1, Blocks: 1, Rows: rows}
	c.zobj = zObjective{cpl: &c.cpl, v: c.v}
	return c
}

// BeginSlot seeds the working price/consensus state from the committed
// warm state (zeros before the first committed slot).
func (c *Coordinator) BeginSlot() {
	copy(c.u, c.uWarm)
	copy(c.zDuals, c.zDualWarm)
	copy(c.z, c.zWarm)
}

// CommitSlot promotes the working state to the committed warm state; the
// next BeginSlot starts from it.
func (c *Coordinator) CommitSlot() {
	copy(c.uWarm, c.u)
	copy(c.zDualWarm, c.zDuals)
	copy(c.zWarm, c.z)
	c.hasWarm = true
}

// Solve runs the coordination loop between BeginSlot and CommitSlot. The
// ctx parameter overrides Options.Ctx for this call (nil keeps it).
// Repeated Solve calls within one slot (the caller's candidate-expansion
// rounds) resume from the working state.
func (c *Coordinator) Solve(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = c.opts.Ctx
	}
	S := len(c.blocks)
	nI := c.nI
	fS := float64(S)
	rho := c.opts.Rho

	res := &c.res
	*res = Result{
		Totals:       c.xbar,
		RhoDuals:     c.zDuals[:nI],
		NuDuals:      c.zDuals[nI : 2*nI],
		Prices:       c.prices,
		BlockSeconds: c.secs,
	}
	for s := range c.secs {
		c.secs[s] = 0
	}

	// Warm totals and an initial feasible z-iterate: the z-step before
	// the first x-step projects the warm totals onto the capacity/
	// complement-feasible set under the current prices, so iteration 1's
	// targets already point every shard at a feasible consensus.
	for s, b := range c.blocks {
		b.WarmTotalsInto(c.totals[s*nI : (s+1)*nI])
	}
	c.assemble()
	if err := c.zStep(ctx, fS, res); err != nil {
		return nil, err
	}

	maxRes := math.Inf(1)
	for iter := 0; iter < c.opts.MaxIters; iter++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("shard: aborted at coordination iteration %d: %w", iter, err)
			}
		}
		res.Iters++

		// x-step: targets c^s = T^s + (Z − X̂)/S − u, shards in parallel.
		for s := 0; s < S; s++ {
			tg := c.target[s*nI : (s+1)*nI]
			tt := c.totals[s*nI : (s+1)*nI]
			for i := 0; i < nI; i++ {
				tg[i] = tt[i] + (c.z[i]-c.xbar[i])/fS - c.u[i]
			}
		}
		w := c.opts.Workers
		if w > S {
			w = S
		}
		if w < 1 {
			w = 1
		}
		par.Ranges(w, S, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				start := time.Now()
				outer, inner, err := c.blocks[s].Solve(rho,
					c.target[s*nI:(s+1)*nI], c.totals[s*nI:(s+1)*nI])
				c.secs[s] += time.Since(start).Seconds()
				c.outerS[s], c.innerS[s], c.errS[s] = outer, inner, err
			}
		})
		for s := 0; s < S; s++ {
			if err := c.errS[s]; err != nil {
				return nil, fmt.Errorf("shard %d: %w", s, err)
			}
			res.BlockOuter += c.outerS[s]
			res.BlockInner += c.innerS[s]
		}
		c.assemble()

		// z-step on the assembled totals, then the price update.
		copy(c.zPrev, c.z)
		if err := c.zStep(ctx, fS, res); err != nil {
			return nil, err
		}
		primal, dual := 0.0, 0.0
		for i := 0; i < nI; i++ {
			c.u[i] += (c.xbar[i] - c.z[i]) / fS
			c.prices[i] = rho * c.u[i]
			if r := math.Abs(c.xbar[i]-c.z[i]) / (1 + math.Abs(c.xbar[i])); r > primal {
				primal = r
			}
			if d := rho / fS * math.Abs(c.z[i]-c.zPrev[i]) / (1 + math.Abs(c.z[i])); d > dual {
				dual = d
			}
		}
		maxRes = primal
		if primal <= c.opts.PrimalTol && dual <= c.opts.DualTol {
			res.Converged = true
			break
		}
	}
	res.MaxResidual = maxRes
	return res, nil
}

// assemble reduces the per-block totals into X̂ in shard index order.
func (c *Coordinator) assemble() {
	nI := c.nI
	for i := 0; i < nI; i++ {
		c.xbar[i] = 0
	}
	for s := range c.blocks {
		tt := c.totals[s*nI : (s+1)*nI]
		for i := 0; i < nI; i++ {
			c.xbar[i] += tt[i]
		}
	}
}

// zStep solves the I-dimensional consensus program
// min Σ_i φ_i(Z_i) + (ρ/2S)·‖Z − (X̂ + S·u)‖² under the complement and
// capacity rows, warm from the working z-iterate and duals.
func (c *Coordinator) zStep(ctx context.Context, fS float64, res *Result) error {
	nI := c.nI
	for i := 0; i < nI; i++ {
		c.v[i] = c.xbar[i] + fS*c.u[i]
	}
	c.zobj.rhoOverS = c.opts.Rho / fS
	prob := alm.Problem{Obj: &c.zobj, N: nI, Lower: c.zlower, Groups: &c.zgroups}
	sopts := c.opts.Solver
	sopts.Workspace = &c.zws
	sopts.Ctx = ctx
	sopts.WarmX = c.z
	sopts.WarmDuals = c.zDuals
	r, err := alm.Solve(&prob, sopts)
	if err != nil {
		return fmt.Errorf("shard: consensus z-step: %w", err)
	}
	copy(c.z, r.X)
	copy(c.zDuals, r.Duals)
	res.ZOuter += r.Outer
	res.ZInner += r.InnerIters
	return nil
}

// zObjective is the smooth part of the z-step: the reconfiguration
// regularizer on the per-cloud totals plus the ADMM proximal term.
type zObjective struct {
	cpl      *Coupling
	v        []float64 // prox center, rewritten by zStep per call
	rhoOverS float64
}

// Eval implements fista.Objective.
func (o *zObjective) Eval(x, grad []float64) float64 {
	cpl := o.cpl
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
