package core

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
	"edgealloc/internal/solver/par"
	"edgealloc/internal/solver/shard"
	"edgealloc/internal/solver/shardrpc"
)

// This file implements the user-sharded solving layer of the online
// algorithm (Options.Shards; DESIGN.md §7e). The J users are split into S
// contiguous shards, each solving its own reduced P2 — static cost,
// migration regularizer, and demand rows over its users only, on its own
// ragged candidate set, with its own ALM workspace — in parallel,
// while the internal/solver/shard coordinator runs a sharing-ADMM loop on
// the per-cloud totals that carries the reconfiguration regularizer and
// the capacity rows. The coordination prices play the role the capacity
// multipliers play in the monolithic solve; on convergence the shard
// demand duals assemble into θ' and the coordinator's consensus step
// supplies ν' in the standard [θ | ν] dual layout of the single-program
// paths, so the certificate and conformance machinery consume
// the assembled result exactly as they consume the monolithic one.
//
// Candidate sets (Options.Candidates) compose per shard: each shard seeds
// its users' nearest-cloud sets plus carryover support, and after the
// coordination loop converges the same KKT pricing pass as sparse.go
// re-admits mispriced pruned pairs — using the assembled θ/ν — and the
// coordination resumes warm until no pair prices negative.
type shardState struct {
	parts  []shard.Range
	blocks []*shardBlock
	coord  *shard.Coordinator
	// remotes[si] is the RPC transport placing block si on a shard worker
	// (Options.ShardWorkers; nil when solving in-process).
	remotes []*shardrpc.RemoteBlock
	// nearest[a] lists the Options.Candidates clouds closest to cloud a
	// (every cloud when Candidates is off).
	nearest [][]int
	duals   []float64 // assembled [θ(J) | ν(I)]
	// xDense is the dense image of the assembled decision and, within a
	// slot, the bridge a block's iterate crosses between candidate layouts.
	xDense    []float64
	blockSecs []float64 // per-shard solve seconds of the current slot
	priced    []int     // per-shard pairs admitted by one pricing pass
	base      []float64 // per-cloud gradient term of the pricing pass
	restTot   []float64 // per-cloud totals scratch for restoreCapacity
}

// initShard builds the per-instance sharded state: the user partition,
// one block per shard, and the coordinator holding the consensus problem.
func (o *OnlineApprox) initShard(in *model.Instance) {
	parts := shard.Partition(in.J, o.opts.Shards)
	s := &shardState{
		parts:     parts,
		blocks:    make([]*shardBlock, len(parts)),
		nearest:   nearestClouds(in, o.opts.Candidates),
		duals:     make([]float64, in.J+in.I),
		xDense:    make([]float64, in.I*in.J),
		blockSecs: make([]float64, len(parts)),
		priced:    make([]int, len(parts)),
		base:      make([]float64, in.I),
		restTot:   make([]float64, in.I),
	}
	// Blocks solve serially inside: the parallelism is across blocks —
	// their solves in the coordinator, and their slot preparation and
	// pricing in solveShard — all dispatched by par.Each over
	// Solver.Workers.
	sopts := o.opts.Solver
	ifaces := make([]shard.Block, len(parts))
	for si, rng := range parts {
		nJ := rng.Len()
		b := &shardBlock{
			st:        s,
			rng:       rng,
			builder:   model.NewCandidateBuilder(in.I, nJ),
			users:     make([]int, nJ),
			thetaWarm: make([]float64, nJ),
		}
		for jl := range b.users {
			b.users[jl] = jl
		}
		b.obj = newPackedObjective(in.I, o.opts.Epsilon1, o.opts.Epsilon2, o.opts.FastMath)
		b.setDemand(in.I, in.Workload[rng.Lo:rng.Hi])
		b.theta = make([]float64, nJ)
		b.sopts = sopts
		s.blocks[si] = b
		ifaces[si] = b
	}
	if workers := o.opts.ShardWorkers; len(workers) > 0 {
		clients := make([]*shardrpc.Client, len(workers))
		for w, base := range workers {
			clients[w] = shardrpc.NewClient(base, shardrpc.ClientOptions{Metrics: o.opts.Metrics})
		}
		// Block IDs must be unique across every coordinator a worker may
		// serve concurrently (several edged replicas, several harness
		// runs), so they carry the process ID and a per-process run
		// counter.
		run := shardRunSeq.Add(1)
		s.remotes = make([]*shardrpc.RemoteBlock, len(parts))
		for si := range parts {
			id := fmt.Sprintf("p%d-r%d-s%d", os.Getpid(), run, si)
			s.remotes[si] = shardrpc.NewRemoteBlock(clients[si%len(clients)], id, s.blocks[si])
			ifaces[si] = s.remotes[si]
		}
	}
	s.coord = shard.NewCoordinator(in.I, ifaces, shard.Coupling{
		RcFac:    o.obj.rcFac,
		PrevTot:  o.obj.prevTot, // rebound in place by o.obj.bind each slot
		Eps1:     o.opts.Epsilon1,
		Capacity: in.Capacity,
	}, shard.Options{
		Rho:       o.opts.ShardRho,
		MaxIters:  o.opts.ShardMaxIters,
		PrimalTol: o.opts.ShardPrimalTol,
		DualTol:   o.opts.ShardDualTol,
		Workers:   o.opts.Solver.Workers,
	})
	o.shrd = s
}

// shardRunSeq disambiguates the remote-block IDs of coordinators living
// in the same process (see initShard).
var shardRunSeq atomic.Uint64

// solveShard runs slot t's sharded solve: per-shard candidate seeding and
// packed binds, the coordination loop, and the KKT pricing pass until a
// round changes nothing. It returns the dense image of the assembled
// decision, the assembled [θ | ν], and the slot's diagnostics; the
// slices alias shard scratch, valid until the next call.
func (o *OnlineApprox) solveShard(ctx context.Context, t int) ([]float64, []float64, StepDiag, error) {
	in, s := o.inst, o.shrd
	var d StepDiag

	warmDense := o.warmPoint(t)
	workers := o.opts.Solver.Workers
	par.Each(workers, len(s.blocks), func(si int) {
		s.blocks[si].beginSlot(o, warmDense, t, ctx)
	})
	for _, rb := range s.remotes {
		rb.BeginSlot(t, ctx)
	}
	s.coord.BeginSlot()
	clear(s.blockSecs)

	var cres *shard.Result
	for {
		d.CandRounds++
		r, err := s.coord.Solve(ctx)
		if err != nil {
			return nil, nil, d, err
		}
		cres = r
		d.ShardIters += r.Iters
		d.Outer += r.BlockOuter
		d.Inner += r.BlockInner
		for i, sec := range r.BlockSeconds {
			s.blockSecs[i] += sec
		}
		// Pull remote post-round state into the mirrors (no-op in-process)
		// before anything below reads block iterates or duals. A block that
		// failed to sync reverts to its round-start state, so its
		// contribution to the assembled result must be re-derived: lost > 0
		// forces another coordination round (bounded — a repeatedly failing
		// block folds back to local solving, after which its sync is
		// trivially clean).
		lost := 0
		for _, rb := range s.remotes {
			if rb.SyncState() != nil {
				lost++
			}
		}
		// The pricing pass is the single program's, evaluated with the
		// assembled duals — θ from each user's owning shard, ν from the
		// consensus step — and the reconfiguration gradient at the
		// assembled totals.
		certStart := time.Now()
		o.obj.kktBase(s.base, r.Totals, r.NuDuals)
		added := 0
		if o.opts.Candidates > 0 {
			par.Each(workers, len(s.blocks), func(si int) {
				b := s.blocks[si]
				s.priced[si] = 0
				if n := priceExpand(o.obj, s.base, b.theta, b.builder, b.users, b.rng.Lo, o.opts.CandidateTol); n > 0 {
					s.priced[si] = n
					b.dirty = true
				}
			})
			for _, n := range s.priced {
				added += n
			}
		}
		d.CertifySeconds += time.Since(certStart).Seconds()
		if added == 0 && lost == 0 {
			break
		}
		d.CandExpanded += added
		for si, b := range s.blocks {
			if b.dirty {
				b.rebind(o)
				if s.remotes != nil {
					// The candidate relayout changed the packed geometry;
					// the worker's copy is invalid until re-pushed.
					s.remotes[si].Invalidate()
				}
			}
		}
	}

	// Assemble the decision and the standard dual layout.
	clear(s.xDense)
	for _, b := range s.blocks {
		scatterInto(s.xDense, in.J, b.rng.Lo, &b.cand, b.warm)
		copy(s.duals[b.rng.Lo:b.rng.Hi], b.theta)
		d.CandNNZ += len(b.warm)
	}
	copy(s.duals[in.J:], cres.NuDuals)
	d.ShardRestored = s.restoreCapacity(in)

	// Commit the warm state only now: a slot aborted above leaves the
	// coordinator prices and shard duals exactly as the last successful
	// slot wrote them, matching StepCtx's cancellation contract.
	s.coord.CommitSlot()
	for _, rb := range s.remotes {
		rb.Commit()
	}
	for i, b := range s.blocks {
		copy(b.thetaWarm, b.theta)
		if s.blockSecs[i] > d.ShardMaxSeconds {
			d.ShardMaxSeconds = s.blockSecs[i]
		}
		d.Evals += b.evals
		d.DualSteps += b.dualSteps
		d.DualRefused += b.dualRefused
	}
	d.Converged = cres.Converged
	d.ShardResidual = cres.MaxResidual
	return s.xDense, s.duals, d, nil
}

// restoreCapacity projects the assembled schedule onto exact capacity
// feasibility, returning the total mass moved. When the coordination loop
// exhausts ShardMaxIters above ShardPrimalTol (inevitable when the block
// budget's feasibility noise exceeds the requested consensus tolerance),
// the assembled totals can exceed the consensus point's capacity-feasible
// totals by up to the final residual; left alone, that residual leaks
// into a Theorem-1 capacity violation on tight instances. Because
// projectDemand makes every demand row exact, Σ_i X_i equals the total
// workload, so the complement rows are equivalent to the capacity rows
// and restoring capacity alone restores full Theorem-1 feasibility. Each
// over-capacity cloud's row is scaled onto its capacity and every user's
// shaved mass moves to clouds with slack (lowest index first, keeping the
// user's demand row exact); deposits never push a cloud past capacity, so
// one pass in cloud order terminates with every total at or under
// capacity whenever aggregate slack exists. If the instance itself is
// over-subscribed the remainder is returned to its origin — demand stays
// exact and the conformance oracle reports the genuine infeasibility. On
// a converged slot the pass moves at most roundoff-level mass; it is
// deterministic and allocation-free either way.
func (s *shardState) restoreCapacity(in *model.Instance) float64 {
	nJ := in.J
	tot := s.restTot
	for i := 0; i < in.I; i++ {
		t := 0.0
		for _, v := range s.xDense[i*nJ : (i+1)*nJ] {
			t += v
		}
		tot[i] = t
	}
	moved := 0.0
	for i := 0; i < in.I; i++ {
		capi := in.Capacity[i]
		if tot[i] <= capi {
			continue
		}
		f := capi / tot[i]
		row := s.xDense[i*nJ : (i+1)*nJ]
		returned := 0.0
		for j, v := range row {
			if v <= 0 {
				continue
			}
			shave := v * (1 - f)
			row[j] = v * f
			for k := 0; k < in.I && shave > 0; k++ {
				if k == i || tot[k] >= in.Capacity[k] {
					continue
				}
				d := in.Capacity[k] - tot[k]
				if d > shave {
					d = shave
				}
				s.xDense[k*nJ+j] += d
				tot[k] += d
				moved += d
				shave -= d
			}
			if shave > 0 {
				row[j] += shave
				returned += shave
			}
		}
		tot[i] = capi + returned
	}
	return moved
}

// p2Block is a shard block's solvable core — its users' slice of P2 over
// a ragged layout with only the demand rows (the coupling rows live in
// the coordinator), the working demand duals, and the ALM budget — in the
// one form the in-process shardBlock and the worker-side hostedBlock
// share, so a remote solve is operation-for-operation the local one by
// construction.
type p2Block struct {
	p2Program
	// theta are the working demand duals θ'_j of the block's users, warm
	// across coordination iterations and pricing rounds.
	theta []float64
	// demand is the block users' workload slice; served is per-user
	// scratch for the demand projection after each solve.
	demand []float64
	served []float64
	ws     alm.Workspace
	sopts  alm.Options
}

// setDemand installs the block's users and their demand rows.
func (b *p2Block) setDemand(nI int, demand []float64) {
	nJ := len(demand)
	rows := make([]alm.GroupRow, nJ)
	for jl, w := range demand {
		rows[jl] = alm.GroupRow{Kind: alm.GroupUserSum, Index: jl, RHS: w}
	}
	b.groups = alm.Groups{I: nI, J: nJ, Rows: rows}
	b.demand = demand
	b.served = growFloats(b.served, nJ)
}

// solve is one consensus x-step: a warm ALM solve of the block's demand-
// constrained subproblem under the penalty (ρ/2)·Σ_i (X_i − target_i)²,
// followed by the exact demand projection; the solution stays in warm and
// theta and its per-cloud totals land in totals.
func (b *p2Block) solve(rho float64, target, totals []float64) (outer, inner int, err error) {
	b.obj.rho, b.obj.target = rho, target
	prob := alm.Problem{Obj: &b.obj, N: len(b.warm), Groups: &b.groups}
	sopts := b.sopts
	sopts.Workspace = &b.ws
	sopts.WarmX = b.warm
	sopts.WarmDuals = b.theta
	res, err := alm.Solve(&prob, sopts)
	if err != nil {
		return 0, 0, err
	}
	copy(b.warm, res.X)
	copy(b.theta, res.Duals)
	b.projectDemand()
	b.totalsInto(totals)
	return res.Outer, res.InnerIters, nil
}

// totalsInto writes the warm point's per-cloud totals.
func (b *p2Block) totalsInto(totals []float64) {
	clear(totals)
	b.obj.addTotals(totals, b.warm)
}

// projectDemand rescales every local user's column so its demand row
// holds exactly. Under a throughput-tuned (low-iteration) block budget
// the ALM solve can leave ~1e-3-relative demand shortfalls; the model
// layer's serve-all repair would then scale columns up AFTER the
// coordination loop certified its residual, silently pushing cloud loads
// past capacity. Projecting here instead keeps the repair a no-op on the
// sharded path, so the coordination primal residual is an honest bound
// on the assembled schedule's relative capacity violation. At tight
// budgets the demand rows already hold to ~1e-10 and the projection is a
// no-op up to floating-point roundoff.
func (b *p2Block) projectDemand() {
	x, cols, served := b.warm, b.groups.Cols, b.served
	clear(served)
	for k, v := range x {
		if v < 0 {
			x[k], v = 0, 0
		}
		served[cols[k]] += v
	}
	for jl, s := range served {
		if s > 0 {
			served[jl] = b.demand[jl] / s
		} else {
			served[jl] = 1
		}
	}
	for k := range x {
		x[k] *= served[cols[k]]
	}
}

// shardBlock is one shard of the in-process sharded path: a p2Block over
// the candidate layout of its contiguous user range. It implements
// shard.Block and, for Options.ShardWorkers, shardrpc.Mirror.
type shardBlock struct {
	p2Block
	st  *shardState
	rng shard.Range

	builder *model.CandidateBuilder
	cand    model.CandidateSet
	users   []int // 0..nJ-1: the pricing pass's user list
	// thetaWarm is the committed copy of theta, promoted only on slot
	// success.
	thetaWarm []float64
	dirty     bool
	// evals, dualSteps and dualRefused sum alm.Result's Evals, DualSteps
	// and DualRefused over the block's in-process solves of the slot
	// (StepDiag).
	evals, dualSteps, dualRefused int
}

var (
	_ shard.Block     = (*shardBlock)(nil)
	_ shardrpc.Mirror = (*shardBlock)(nil)
)

// beginSlot seeds the block for slot t: the candidate sets (nearest
// clouds by attachment plus the warm point's support), the packed bind
// from the block's columns of the global warm point, and the working
// duals from the committed warm duals.
func (b *shardBlock) beginSlot(o *OnlineApprox, warmDense []float64, t int, ctx context.Context) {
	in := o.inst
	b.builder.Reset()
	for jl := range b.users {
		b.builder.AddUserSet(jl, b.st.nearest[in.Attach[t][b.rng.Lo+jl]])
	}
	for i := 0; i < in.I; i++ {
		for jl, v := range warmDense[i*in.J+b.rng.Lo : i*in.J+b.rng.Hi] {
			if v != 0 {
				b.builder.Add(i, jl)
			}
		}
	}
	b.builder.Build(&b.cand)
	b.gather(o.obj, &b.cand, b.rng.Lo, warmDense)
	copy(b.theta, b.thetaWarm)
	b.sopts.Ctx = ctx
	b.dirty = false
	b.evals, b.dualSteps, b.dualRefused = 0, 0, 0
}

// rebind relayouts the block after a candidate expansion: the current
// packed solution scatters into the block's columns of the dense image,
// the builder rebuilds the CSR, and the packed buffers regather. The
// demand-dual dimension is per-user, so theta carries over unchanged.
func (b *shardBlock) rebind(o *OnlineApprox) {
	img, nJ := b.st.xDense, o.inst.J
	for i := 0; i < b.obj.nI; i++ {
		clear(img[i*nJ+b.rng.Lo : i*nJ+b.rng.Hi])
	}
	scatterInto(img, nJ, b.rng.Lo, &b.cand, b.warm)
	b.builder.Build(&b.cand)
	b.gather(o.obj, &b.cand, b.rng.Lo, img)
	b.dirty = false
}

// Solve implements shard.Block.
func (b *shardBlock) Solve(rho float64, target, totals []float64) (int, int, error) {
	outer, inner, err := b.solve(rho, target, totals)
	last := b.ws.Last()
	b.evals += last.Evals
	b.dualSteps += last.DualSteps
	b.dualRefused += last.DualRefused
	return outer, inner, err
}

// WarmTotalsInto implements shard.Block.
func (b *shardBlock) WarmTotalsInto(totals []float64) { b.totalsInto(totals) }

// Spec implements shardrpc.Mirror: a deep copy of the block's current
// bind and warm state under the given wire identity. Called at spec
// pushes — once per (slot, relayout, worker restart) — so the copies are
// off every hot path.
func (b *shardBlock) Spec(id string, slot, gen int) *shardrpc.BlockSpec {
	o := &b.obj
	return &shardrpc.BlockSpec{
		ID:       id,
		Slot:     slot,
		Gen:      gen,
		NI:       o.nI,
		NJ:       o.nJ,
		Eps2:     o.eps2,
		FastMath: o.fast,
		RowPtr:   append([]int(nil), b.cand.RowPtr...),
		Cols:     append([]int(nil), b.cand.Cols...),
		Coef:     append([]float64(nil), o.coef...),
		Prev:     append([]float64(nil), o.prev...),
		MgFac:    append([]float64(nil), o.mgFac...),
		Warm:     append([]float64(nil), b.warm...),
		Theta:    append([]float64(nil), b.theta...),
		Demand:   append([]float64(nil), b.demand...),
		Solver: shardrpc.SolverOptions{
			MaxOuter:   b.sopts.MaxOuter,
			InnerIters: b.sopts.InnerIters,
			Penalty:    b.sopts.Penalty,
			FeasTol:    b.sopts.FeasTol,
			ObjTol:     b.sopts.ObjTol,
			DualTol:    b.sopts.DualTol,
		},
	}
}

// SetState implements shardrpc.Mirror: the worker's post-round iterate
// and demand duals overwrite the mirror's warm state.
func (b *shardBlock) SetState(x, theta []float64) error {
	if len(x) != len(b.warm) || len(theta) != len(b.theta) {
		return fmt.Errorf("core: shard state size mismatch: got %d vars and %d duals, want %d and %d",
			len(x), len(theta), len(b.warm), len(b.theta))
	}
	copy(b.warm, x)
	copy(b.theta, theta)
	return nil
}
