// Package shard implements the user-sharded dual-decomposition layer of
// the per-slot program P2 (DESIGN.md §7e). P2's objective and constraints
// couple users only through the I-dimensional vector of per-cloud totals
// X_i = Σ_j x_ij: the static and migration terms and the demand rows are
// separable per user, while the reconfiguration regularizer φ_i(X_i) and
// the capacity rows X_i ≤ C_i read only the totals. Splitting the J users
// into S shards therefore splits P2 into S independent subproblems tied
// together by one small consensus program:
//
//	minimize   Σ_s f_s(x^s) + g(Σ_s T^s(x^s))
//	subject to demand rows and x ≥ 0 inside each shard,
//
// where T^s(x^s) ∈ R^I are shard s's cloud totals, f_s collects its
// users' static and migration-entropy terms, and g(Z) = Σ_i φ_i(Z_i) plus
// the indicator of the box 0 ≤ Z_i ≤ C_i. (The paper's complement rows
// Σ_{k≠i} X_k ≥ (Λ−C_i)⁺ are implied by demand + capacity, DESIGN.md §3b,
// so the consensus program does not carry them.)
//
// The Coordinator runs the scaled sharing-ADMM of Boyd et al. (§7.3) on
// this split. Each outer iteration:
//
//  1. x-step: every shard minimizes f_s(x^s) + (ρ/2)·Σ_i (T_i^s(x^s) −
//     c_i^s)² over its demand rows, in parallel, warm-started from its
//     previous iterate; the targets c^s = T^s + (Z − X̂)/S − u differ
//     across shards only by their own previous totals.
//  2. z-step: the prox of g at v = X̂+S·u, min g(Z) + (ρ/2S)·‖Z − v‖².
//     g is separable, so this is one scalar problem per cloud, solved
//     exactly (prox): the root of the increasing stationarity function
//     clamped to [0, C_i]. The multiplier read off the upper
//     clamp converges to the capacity dual ν'_i of the full program.
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
// Determinism: shard solves within an iteration are independent, each
// writes only its own totals and counters, and those reduce in shard
// index order, so results are byte-identical for any Options.Workers
// value and whichever worker solved which block; the whole loop is a
// pure function of its inputs, so repeated runs are bitwise reproducible
// for any shard count.
package shard

import (
	"context"
	"fmt"
	"math"
	"time"

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
	// the ALM outer and inner-solver iteration counts of the solve.
	Solve(rho float64, target, totals []float64) (outer, inner int, err error)

	// WarmTotalsInto writes the per-cloud totals of the block's current
	// warm point — the state a Solve would start from.
	WarmTotalsInto(totals []float64)
}

// Coupling is the data of the coordination (cloud-total) problem: the
// reconfiguration regularizer φ_i(Z_i) = RcFac_i·((Z_i+ε₁)·ln((Z_i+ε₁)/
// (PrevTot_i+ε₁)) − Z_i) and the capacity rows. The
// slices are retained, not copied: callers rebind PrevTot's contents at
// every slot (the previous decision's totals change) without rebuilding
// the coordinator.
type Coupling struct {
	RcFac    []float64 // per-cloud wRc·c_i/η_i
	PrevTot  []float64 // X'_i, rebound per slot by the caller
	Eps1     float64
	Capacity []float64 // C_i: capacity rows Z_i ≤ C_i
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
	// Workers bounds concurrently solving blocks (<= 1 solves serially,
	// in shard order). An idle worker takes the next unsolved block
	// (par.Each); a block writes only its own totals and counters, and
	// those reduce in shard index order, so results are byte-identical for
	// any value.
	Workers int
	// Ctx optionally cancels the loop between iterations; Solve then
	// returns an error wrapping ctx.Err().
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
	// NuDuals are the multipliers of the capacity rows at exit, in the
	// same per-cloud order the unsharded solve records them.
	NuDuals []float64
	// Prices are the per-cloud coordination prices π = ρ·u at exit.
	Prices []float64
	// BlockSeconds is each block's cumulative solve wall-time.
	BlockSeconds []float64
	// BlockOuter and BlockInner sum the shards' ALM outer and inner-solver
	// iterations.
	BlockOuter, BlockInner int
}

// Coordinator runs the sharing-ADMM loop over a fixed set of blocks.
// The prices — the only warm state; the z-iterate is a function of them
// and the blocks' totals — persist across slots through the
// BeginSlot/Solve/CommitSlot protocol: BeginSlot copies the committed
// prices into the working buffer, Solve (possibly several rounds, when
// the caller's pricing pass expands candidate sets between rounds)
// advances it, and CommitSlot promotes it. A slot aborted before
// CommitSlot — a cancelled context — leaves the warm state exactly as
// the last committed slot wrote it, mirroring the unsharded solver's
// cancellation contract. A Coordinator must not be shared between
// goroutines.
type Coordinator struct {
	nI     int
	blocks []Block
	cpl    Coupling
	opts   Options

	uWarm []float64 // committed scaled prices (promoted by CommitSlot)
	u     []float64 // working scaled prices (seeded by BeginSlot)

	z, zPrev []float64 // consensus iterate and its previous value
	nu       []float64 // capacity multipliers of the latest z-step
	totals   []float64 // S×I per-block totals
	xbar     []float64 // assembled totals X̂
	target   []float64 // S×I x-step targets
	secs     []float64 // per-block cumulative solve seconds
	outerS   []int     // per-block ALM outers (reduced in index order)
	innerS   []int
	errS     []error
	prices   []float64
	res      Result
}

// NewCoordinator builds a coordinator over the blocks. The Coupling
// slices are retained (see Coupling); opts.Ctx may be replaced per slot
// via Solve's context parameter.
func NewCoordinator(nI int, blocks []Block, cpl Coupling, opts Options) *Coordinator {
	opts = opts.withDefaults()
	S := len(blocks)
	return &Coordinator{
		nI:     nI,
		blocks: blocks,
		cpl:    cpl,
		opts:   opts,
		uWarm:  make([]float64, nI),
		u:      make([]float64, nI),
		z:      make([]float64, nI),
		zPrev:  make([]float64, nI),
		nu:     make([]float64, nI),
		totals: make([]float64, S*nI),
		xbar:   make([]float64, nI),
		target: make([]float64, S*nI),
		secs:   make([]float64, S),
		outerS: make([]int, S),
		innerS: make([]int, S),
		errS:   make([]error, S),
		prices: make([]float64, nI),
	}
}

// BeginSlot seeds the working prices from the committed ones (zeros
// before the first committed slot).
func (c *Coordinator) BeginSlot() { copy(c.u, c.uWarm) }

// CommitSlot promotes the working prices to the committed warm state; the
// next BeginSlot starts from them.
func (c *Coordinator) CommitSlot() { copy(c.uWarm, c.u) }

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
		NuDuals:      c.nu,
		Prices:       c.prices,
		BlockSeconds: c.secs,
	}
	for s := range c.secs {
		c.secs[s] = 0
	}

	// Warm totals and an initial feasible z-iterate: the z-step before
	// the first x-step projects the warm totals onto the capacity box
	// under the current prices, so iteration 1's targets already point
	// every shard at a feasible consensus.
	for s, b := range c.blocks {
		b.WarmTotalsInto(c.totals[s*nI : (s+1)*nI])
	}
	c.assemble()
	c.zStep()

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
		par.Each(c.opts.Workers, S, func(s int) {
			start := time.Now()
			outer, inner, err := c.blocks[s].Solve(rho,
				c.target[s*nI:(s+1)*nI], c.totals[s*nI:(s+1)*nI])
			c.secs[s] += time.Since(start).Seconds()
			c.outerS[s], c.innerS[s], c.errS[s] = outer, inner, err
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
		c.zStep()
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

// zStep solves the consensus program min Σ_i φ_i(Z_i) + (ρ/2S)·‖Z − (X̂ +
// S·u)‖² over 0 ≤ Z_i ≤ C_i, which is one scalar prox per cloud.
func (c *Coordinator) zStep() {
	cpl, fS := &c.cpl, float64(len(c.blocks))
	k := c.opts.Rho / fS
	for i := range c.z {
		v := c.xbar[i] + fS*c.u[i]
		c.z[i], c.nu[i] = prox(cpl.RcFac[i], cpl.PrevTot[i], cpl.Eps1, k, v, cpl.Capacity[i])
	}
}

// prox returns the minimizer over [0, capacity] of the one-cloud z-step
// rcFac·((z+ε₁)·ln((z+ε₁)/(prev+ε₁)) − z) + (k/2)·(z − v)² and the
// multiplier ν ≥ 0 of z ≤ capacity. The objective is strictly convex with
// the increasing derivative
//
//	g(z) = rcFac·ln((z+ε₁)/(prev+ε₁)) + k·(z − v),
//
// so the minimizer is the root of g clamped to the box, and ν = −g(C)
// where the upper clamp binds. An interior root is bisected on [0, C]
// until the bracket is two adjacent floats — some sixty evaluations of g,
// no tolerance — and the left one (g < 0) is returned. prox is a
// pure function of its arguments and allocates nothing; a NaN argument
// comes back as ν = NaN.
func prox(rcFac, prev, eps1, k, v, capacity float64) (z, nu float64) {
	g := func(z float64) float64 {
		return rcFac*math.Log((z+eps1)/(prev+eps1)) + k*(z-v)
	}
	if gc := g(capacity); !(gc > 0) {
		return capacity, -gc
	}
	if g(0) >= 0 {
		return 0, 0
	}
	lo, hi := 0.0, capacity
	for mid := lo + (hi-lo)/2; lo < mid && mid < hi; mid = lo + (hi-lo)/2 {
		if g(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, 0
}
