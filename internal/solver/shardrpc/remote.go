package shardrpc

import (
	"context"
	"errors"
	"fmt"

	"edgealloc/internal/solver/shard"
)

// foldProbeSlots is how many consecutive slots a folded (dead) remote
// block re-probes its worker at the slot boundary before the fold
// becomes permanent. A worker that restarts within a few slots rejoins
// via the spec re-push; one that stays dark stops costing timeouts.
const foldProbeSlots = 3

// Mirror is the coordinator-side in-process image of a remotely hosted
// block: the same shard.Block the coordinator would use without workers,
// plus the hooks the transport needs. The mirror is authoritative — it
// is the fallback solver when the worker dies, and the source of the
// BlockSpec replayed when a worker restarts. core's shardBlock
// implements it.
type Mirror interface {
	shard.Block
	// Spec serializes the mirror's current bound state under the given
	// identity — the warm state as of the last coordination round.
	Spec(id string, slot, gen int) *BlockSpec
	// SetState overwrites the mirror's warm iterate and demand duals
	// with remote state (lengths must match the current bind).
	SetState(x, theta []float64) error
}

// RemoteBlock places one shard block on a worker: it implements
// shard.Block by translating Solve calls into RPCs, keeping the local
// mirror as warm fallback. Used by exactly one goroutine at a time (the
// coordinator solves each block on a single goroutine per iteration);
// the Client underneath may be shared.
//
// Failure handling, in escalation order:
//
//  1. Transient failures (timeout, transport error, 5xx) are retried
//     with exponential backoff inside the Client.
//  2. An unknown-block response — the worker restarted, or holds a
//     stale generation — triggers one spec re-push from the mirror
//     (the warm state of the last coordination round) and a retry.
//  3. Exhausted retries fold the block back into local solving via the
//     mirror. The fold is re-probed at the next foldProbeSlots slot
//     boundaries, then becomes permanent.
//
// A folded or restarted block costs at most one coordination round of
// block progress: the mirror is synced from the worker at every round
// boundary (SyncState), so its state is never older than the current
// round's start, and the sharing-ADMM loop re-derives the lost round
// under its usual convergence gates.
type RemoteBlock struct {
	mirror Mirror
	client *Client
	id     string

	ctx       context.Context
	slot, gen int
	synced    bool // worker holds the current (slot, gen) spec
	stale     bool // worker state is ahead of the mirror
	dead      bool
	deadSlots int // consecutive slots entered dead (fold probing)
	syncFails int // consecutive SyncState failures this slot
	foldErr   error
}

var _ shard.Block = (*RemoteBlock)(nil)

// NewRemoteBlock wires a mirror to a worker under the given block ID.
func NewRemoteBlock(client *Client, id string, mirror Mirror) *RemoteBlock {
	return &RemoteBlock{mirror: mirror, client: client, id: id}
}

// BeginSlot enters slot; ctx bounds every RPC of the slot (nil means
// background). The spec push is lazy: it happens at the first remote
// Solve.
func (rb *RemoteBlock) BeginSlot(slot int, ctx context.Context) {
	rb.slot = slot
	rb.ctx = ctx
	rb.synced = false
	rb.stale = false
	rb.syncFails = 0
	if rb.dead {
		if rb.deadSlots < foldProbeSlots {
			rb.deadSlots++
			rb.dead = false // re-probe: the worker may be back
		}
	} else {
		rb.deadSlots = 0
	}
}

// Invalidate marks the pushed spec stale after a candidate relayout; the
// next remote Solve re-pushes.
func (rb *RemoteBlock) Invalidate() {
	rb.gen++
	rb.synced = false
	rb.stale = false
}

// Dead reports whether the block has folded back to local solving.
func (rb *RemoteBlock) Dead() bool { return rb.dead }

// FoldErr returns the error that caused the current fold (nil if live).
func (rb *RemoteBlock) FoldErr() error {
	if !rb.dead {
		return nil
	}
	return rb.foldErr
}

// Solve implements shard.Block.
func (rb *RemoteBlock) Solve(rho float64, target, totals []float64) (int, int, error) {
	if rb.dead {
		return rb.mirror.Solve(rho, target, totals)
	}
	resp, err := rb.solveRemote(rho, target)
	if err != nil {
		rb.fold(err)
		return rb.mirror.Solve(rho, target, totals)
	}
	if len(resp.Totals) != len(totals) {
		rb.fold(fmt.Errorf("shardrpc: block %s: worker returned %d totals, want %d",
			rb.id, len(resp.Totals), len(totals)))
		return rb.mirror.Solve(rho, target, totals)
	}
	copy(totals, resp.Totals)
	rb.stale = true
	rb.deadSlots = 0
	return resp.Outer, resp.Inner, nil
}

// solveRemote pushes the spec if needed, runs the solve, and replays the
// spec once on an unknown-block response (worker restart).
func (rb *RemoteBlock) solveRemote(rho float64, target []float64) (*SolveResponse, error) {
	pushed := false
	if !rb.synced {
		if err := rb.push(); err != nil {
			return nil, err
		}
		pushed = true
	}
	resp, err := rb.client.Solve(rb.ctx, rb.id, rb.slot, rb.gen, rho, target)
	if err != nil && errors.Is(err, ErrUnknownBlock) && !pushed {
		if perr := rb.push(); perr != nil {
			return nil, perr
		}
		resp, err = rb.client.Solve(rb.ctx, rb.id, rb.slot, rb.gen, rho, target)
	}
	return resp, err
}

// push replays the mirror's warm state to the worker.
func (rb *RemoteBlock) push() error {
	if err := rb.client.BeginSlot(rb.ctx, rb.mirror.Spec(rb.id, rb.slot, rb.gen)); err != nil {
		return err
	}
	rb.synced = true
	rb.stale = false
	return nil
}

// WarmTotalsInto implements shard.Block. The mirror is synced at every
// round boundary, and the coordinator reads warm totals only at round
// starts, so delegating locally is exact.
func (rb *RemoteBlock) WarmTotalsInto(totals []float64) { rb.mirror.WarmTotalsInto(totals) }

// SyncState pulls the worker's post-round state into the mirror. The
// caller (core's solveShard) invokes it after every coordination round,
// before anything reads the mirror's iterate or duals. An error means
// the mirror still holds round-start state: the caller must run another
// coordination round so the assembled result and the block states agree.
// An unknown-block failure (the worker restarted after solving) keeps
// the block remote — the next round re-pushes; other failures fold after
// two consecutive misses.
func (rb *RemoteBlock) SyncState() error {
	if rb.dead || !rb.stale {
		return nil
	}
	st, err := rb.client.State(rb.ctx, rb.id, rb.slot, rb.gen)
	if err == nil {
		err = rb.mirror.SetState(st.X, st.Theta)
		if err == nil {
			rb.stale = false
			rb.syncFails = 0
			return nil
		}
	}
	rb.syncFails++
	rb.stale = false // the mirror's round-start state becomes authoritative
	if errors.Is(err, ErrUnknownBlock) && rb.syncFails < 2 {
		rb.synced = false // restarted worker: re-push next round
	} else {
		rb.fold(err)
	}
	return err
}

// Commit marks the slot committed on the worker, best-effort.
func (rb *RemoteBlock) Commit() {
	if rb.dead {
		return
	}
	_ = rb.client.Commit(rb.ctx, rb.id, rb.slot)
}

// fold sends the block back to local solving.
func (rb *RemoteBlock) fold(err error) {
	if rb.dead {
		return
	}
	rb.dead = true
	rb.foldErr = err
	rb.client.Metrics().CountShardRPCFallback()
}
