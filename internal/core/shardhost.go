package core

import (
	"sync"
	"time"

	"edgealloc/internal/solver/alm"
	"edgealloc/internal/solver/shardrpc"
)

// hostBlockTTL bounds how long a hosted block outlives its last RPC. A
// coordinator that vanishes mid-run (crashed edgesim, dropped edged
// session) would otherwise leak its blocks in the worker forever; the
// protocol needs no worker-side state across slots — every slot starts
// with a full begin-slot push — so eviction can never lose anything a
// re-push cannot replace.
const hostBlockTTL = 15 * time.Minute

// ShardHost is the worker-side implementation of shardrpc.Host: it keeps
// the blocks pushed by coordinators and runs their consensus x-steps
// with exactly the in-process block-solve code path (same objective,
// same ALM budget, same demand projection), so a remote solve is bitwise
// identical to the local solve it replaces. cmd/edgeshard serves it over
// HTTP.
//
// Blocks are independent: distinct blocks solve concurrently (the
// coordinator fans its shards out in parallel), while calls on one block
// serialize on its own mutex.
type ShardHost struct {
	mu     sync.Mutex
	blocks map[string]*hostedBlock
}

var _ shardrpc.Host = (*ShardHost)(nil)

// NewShardHost returns an empty host.
func NewShardHost() *ShardHost {
	return &ShardHost{blocks: make(map[string]*hostedBlock)}
}

// hostedBlock is one coordinator-pushed shard block: the same p2Block a
// shardBlock embeds, loaded from a BlockSpec instead of gathered from a
// dense instance.
type hostedBlock struct {
	mu        sync.Mutex
	slot, gen int
	touched   time.Time
	p2Block
}

// BeginSlot implements shardrpc.Host.
func (h *ShardHost) BeginSlot(spec *shardrpc.BlockSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	now := time.Now()
	h.mu.Lock()
	h.evictIdle(now)
	b := h.blocks[spec.ID]
	if b == nil {
		b = &hostedBlock{}
		h.blocks[spec.ID] = b
	}
	h.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.load(spec, now)
	return nil
}

// Solve implements shardrpc.Host.
func (h *ShardHost) Solve(req *shardrpc.SolveRequest) (*shardrpc.SolveResponse, error) {
	b, err := h.get(req.ID, req.Slot, req.Gen)
	if err != nil {
		return nil, err
	}
	defer b.mu.Unlock()
	if len(req.Target) != b.obj.nI {
		return nil, &shardrpc.Error{Code: shardrpc.CodeBadRequest,
			Msg: "target length does not match the block's cloud count"}
	}
	totals := make([]float64, b.obj.nI)
	if len(b.warm) == 0 {
		return &shardrpc.SolveResponse{Totals: totals}, nil
	}
	outer, inner, err := b.solve(req.Rho, req.Target, totals)
	if err != nil {
		return nil, &shardrpc.Error{Code: shardrpc.CodeInternal, Msg: err.Error()}
	}
	return &shardrpc.SolveResponse{Totals: totals, Outer: outer, Inner: inner}, nil
}

// State implements shardrpc.Host.
func (h *ShardHost) State(req *shardrpc.StateRequest) (*shardrpc.StateResponse, error) {
	b, err := h.get(req.ID, req.Slot, req.Gen)
	if err != nil {
		return nil, err
	}
	defer b.mu.Unlock()
	return &shardrpc.StateResponse{
		X:     append([]float64(nil), b.warm...),
		Theta: append([]float64(nil), b.theta...),
	}, nil
}

// Commit implements shardrpc.Host. The slot boundary carries no worker
// state — the next begin-slot replaces everything — so commit is a
// liveness touch only.
func (h *ShardHost) Commit(req *shardrpc.CommitRequest) error {
	b, err := h.get(req.ID, req.Slot, -1)
	if err != nil {
		return err
	}
	b.mu.Unlock()
	return nil
}

// Blocks reports how many blocks the host currently holds.
func (h *ShardHost) Blocks() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.blocks)
}

// get returns the locked block hosting (id, slot, gen), or an
// unknown-block error the client answers with a spec re-push. gen < 0
// skips the generation check (commit).
func (h *ShardHost) get(id string, slot, gen int) (*hostedBlock, error) {
	h.mu.Lock()
	b := h.blocks[id]
	h.mu.Unlock()
	if b == nil {
		return nil, &shardrpc.Error{Code: shardrpc.CodeUnknownBlock, Msg: "block " + id + " not hosted"}
	}
	b.mu.Lock()
	if b.slot != slot || (gen >= 0 && b.gen != gen) {
		b.mu.Unlock()
		return nil, &shardrpc.Error{Code: shardrpc.CodeUnknownBlock,
			Msg: "block " + id + " holds a different slot or generation"}
	}
	b.touched = time.Now()
	return b, nil
}

// evictIdle drops blocks idle past hostBlockTTL; h.mu must be held.
func (h *ShardHost) evictIdle(now time.Time) {
	for id, b := range h.blocks {
		if now.Sub(b.touched) > hostBlockTTL {
			delete(h.blocks, id)
		}
	}
}

// load rebuilds the block from a spec, retaining the spec's slices where
// shardBlock gathers them, and keeping the grown scratch across reloads.
func (b *hostedBlock) load(spec *shardrpc.BlockSpec, now time.Time) {
	b.slot, b.gen = spec.Slot, spec.Gen
	b.touched = now
	o := &b.obj
	if o.nI != spec.NI {
		*o = newPackedObjective(spec.NI, 0, 0, false)
	}
	o.nJ, o.rowPtr = spec.NJ, spec.RowPtr
	o.coef, o.prev, o.mgFac = spec.Coef, spec.Prev, spec.MgFac
	o.eps2 = spec.Eps2
	o.fast = spec.FastMath
	o.prepare()
	b.setDemand(spec.NI, spec.Demand)
	b.groups.RowPtr, b.groups.Cols = spec.RowPtr, spec.Cols
	b.warm = append(b.warm[:0], spec.Warm...)
	b.theta = append(b.theta[:0], spec.Theta...)
	b.sopts = alm.Options{
		MaxOuter:   spec.Solver.MaxOuter,
		InnerIters: spec.Solver.InnerIters,
		Penalty:    spec.Solver.Penalty,
		FeasTol:    spec.Solver.FeasTol,
		ObjTol:     spec.Solver.ObjTol,
		DualTol:    spec.Solver.DualTol,
	}
}
