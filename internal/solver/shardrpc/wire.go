// Package shardrpc moves the shard blocks of the sharing-ADMM
// coordination loop (internal/solver/shard) behind a compact HTTP/JSON
// RPC boundary, so the S block solves of a slot can run on separate
// worker processes (cmd/edgeshard) while the coordinator — z-step,
// projection, capacity restoration — stays exactly where it is.
//
// The protocol is four POST endpoints under /v1/shard/:
//
//	begin-slot   push a BlockSpec: the complete packed state of one
//	             block at a slot boundary (coefficients, previous
//	             decision, warm iterate, demand duals, solver budget).
//	solve        one consensus x-step: the coordinator's (rho, target)
//	             in, the block's per-cloud totals out.
//	state        fetch the block's warm iterate and demand duals back
//	             to the coordinator (round-boundary state sync).
//	commit-slot  slot boundary marker; lets a worker retire per-slot
//	             state. Correctness never depends on it: the
//	             coordinator re-pushes a full BlockSpec every slot.
//
// Everything on the wire is encoding/json, which round-trips float64
// exactly (Go prints the shortest representation that re-parses to the
// same bits), so a remote block solve is bitwise identical to the same
// solve in process. The failure model rides on that: a worker that
// restarts lost nothing the coordinator cannot re-push, because the
// coordinator's in-process mirror of every block (shardrpc.Mirror) holds
// the authoritative state as of the last coordination round.
package shardrpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// SolverOptions is the serializable subset of alm.Options a worker needs
// to reproduce a block solve bit-for-bit: the scalar budget and
// tolerances. Warm state travels separately (BlockSpec.Warm/Theta).
// Workers does not travel: alm.Solve never reads it, and the parallelism
// is across shards.
type SolverOptions struct {
	MaxOuter   int     `json:"maxOuter"`
	InnerIters int     `json:"innerIters"`
	Penalty    float64 `json:"penalty"`
	FeasTol    float64 `json:"feasTol"`
	ObjTol     float64 `json:"objTol"`
	DualTol    float64 `json:"dualTol"`
}

// BlockSpec is the complete state of one shard block at a slot (or
// candidate-relayout) boundary: everything a worker needs to host the
// block's consensus x-steps. Slices are in the packed cloud-major CSR
// layout of model.CandidateSet; the receiver retains them.
type BlockSpec struct {
	// ID names the block; the coordinator picks a process-unique ID so
	// several coordinators can share one worker pool.
	ID string `json:"id"`
	// Slot and Gen version the spec: Gen increments on every candidate
	// relayout within a slot. A solve or state call carrying a stale
	// (Slot, Gen) is answered with ErrUnknownBlock so the caller
	// re-pushes.
	Slot int `json:"slot"`
	Gen  int `json:"gen"`
	// NI and NJ are the cloud count and the block's local user count.
	NI int `json:"ni"`
	NJ int `json:"nj"`
	// Eps2 is the migration-entropy regularization parameter ε₂.
	Eps2 float64 `json:"eps2"`
	// FastMath selects the batch-kernel entropy tier.
	FastMath bool `json:"fastMath,omitempty"`
	// RowPtr/Cols are the candidate CSR: cloud i's variables occupy
	// [RowPtr[i], RowPtr[i+1]) with local user indices Cols[k] in [0,NJ).
	RowPtr []int `json:"rowPtr"`
	Cols   []int `json:"cols"`
	// Coef, Prev, and MgFac are the packed weighted static coefficients,
	// previous decision x'_{ij}, and migration factors wMg·b_i/τ_ij.
	Coef  []float64 `json:"coef"`
	Prev  []float64 `json:"prev"`
	MgFac []float64 `json:"mgFac"`
	// Warm is the packed warm iterate and Theta the per-user demand
	// duals — the ExportState-style warm state that makes a remote solve
	// resume exactly where the coordinator's mirror stands.
	Warm  []float64 `json:"warm"`
	Theta []float64 `json:"theta"`
	// Demand is the block users' workload λ_j (the demand-row RHS).
	Demand []float64 `json:"demand"`
	// Solver is the block's ALM budget.
	Solver SolverOptions `json:"solver"`
}

// SolveRequest asks for one consensus x-step of a hosted block.
type SolveRequest struct {
	ID   string `json:"id"`
	Slot int    `json:"slot"`
	Gen  int    `json:"gen"`
	// Rho is the ADMM consensus penalty and Target the per-cloud targets
	// c^s of this iteration (length NI).
	Rho    float64   `json:"rho"`
	Target []float64 `json:"target"`
}

// SolveResponse carries the block's post-solve per-cloud totals and the
// solve's iteration counts.
type SolveResponse struct {
	Totals []float64 `json:"totals"`
	Outer  int       `json:"outer"`
	Inner  int       `json:"inner"`
}

// StateRequest fetches a hosted block's warm state back to the
// coordinator's mirror.
type StateRequest struct {
	ID   string `json:"id"`
	Slot int    `json:"slot"`
	Gen  int    `json:"gen"`
}

// StateResponse is the block's packed warm iterate and demand duals.
type StateResponse struct {
	X     []float64 `json:"x"`
	Theta []float64 `json:"theta"`
}

// CommitRequest marks the slot committed on the worker.
type CommitRequest struct {
	ID   string `json:"id"`
	Slot int    `json:"slot"`
}

// Error codes carried in the wire error envelope.
const (
	// CodeUnknownBlock: the worker does not host this (ID, Slot, Gen) —
	// it restarted, was never pushed, or the spec is stale. The caller
	// recovers by re-pushing the BlockSpec from its mirror.
	CodeUnknownBlock = "unknown_block"
	// CodeBadRequest: the request failed validation; not retryable.
	CodeBadRequest = "bad_request"
	// CodeInternal: the solve itself failed.
	CodeInternal = "internal"
)

// Error is the structured RPC error both sides exchange.
type Error struct {
	Code string `json:"code"`
	Msg  string `json:"error"`
}

func (e *Error) Error() string { return fmt.Sprintf("shardrpc: %s (%s)", e.Msg, e.Code) }

// ErrUnknownBlock is the sentinel the client surfaces for
// CodeUnknownBlock responses; test with errors.Is.
var ErrUnknownBlock = errors.New("shardrpc: unknown block")

// Is lets errors.Is(err, ErrUnknownBlock) match a decoded *Error.
func (e *Error) Is(target error) bool {
	return target == ErrUnknownBlock && e.Code == CodeUnknownBlock
}

// errf builds a bad-request error.
func errf(format string, args ...any) error {
	return &Error{Code: CodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// finite reports whether every element of v is a finite float64.
func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// nonneg reports whether every element of v is finite and >= 0.
func nonneg(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return false
		}
	}
	return true
}

// Validate checks the spec's structural invariants — the same conditions
// the solver layer would otherwise trip over: a consistent CSR, matching
// slice lengths, finite data, and nonnegative iterate/decision/demand.
func (s *BlockSpec) Validate() error {
	if s.ID == "" {
		return errf("spec: empty block ID")
	}
	if s.NI < 1 {
		return errf("spec %s: NI=%d, want >= 1", s.ID, s.NI)
	}
	if s.NJ < 0 {
		return errf("spec %s: NJ=%d, want >= 0", s.ID, s.NJ)
	}
	if len(s.RowPtr) != s.NI+1 {
		return errf("spec %s: RowPtr len=%d, want %d", s.ID, len(s.RowPtr), s.NI+1)
	}
	if s.RowPtr[0] != 0 {
		return errf("spec %s: RowPtr first=%d, want 0", s.ID, s.RowPtr[0])
	}
	for i := 0; i < s.NI; i++ {
		if s.RowPtr[i+1] < s.RowPtr[i] {
			return errf("spec %s: RowPtr decreases at cloud %d", s.ID, i)
		}
	}
	nnz := s.RowPtr[s.NI]
	if len(s.Cols) != nnz {
		return errf("spec %s: len(Cols)=%d, RowPtr covers %d", s.ID, len(s.Cols), nnz)
	}
	for k, j := range s.Cols {
		if j < 0 || j >= s.NJ {
			return errf("spec %s: Cols[%d]=%d out of [0,%d)", s.ID, k, j, s.NJ)
		}
	}
	if len(s.Coef) != nnz || len(s.Prev) != nnz || len(s.MgFac) != nnz || len(s.Warm) != nnz {
		return errf("spec %s: packed lengths coef=%d prev=%d mgFac=%d warm=%d, want %d",
			s.ID, len(s.Coef), len(s.Prev), len(s.MgFac), len(s.Warm), nnz)
	}
	if len(s.Theta) != s.NJ || len(s.Demand) != s.NJ {
		return errf("spec %s: theta=%d demand=%d, want %d", s.ID, len(s.Theta), len(s.Demand), s.NJ)
	}
	if !(s.Eps2 > 0) || math.IsInf(s.Eps2, 0) {
		return errf("spec %s: eps2=%v, want finite > 0", s.ID, s.Eps2)
	}
	if !finite(s.Coef) || !finite(s.MgFac) || !finite(s.Theta) {
		return errf("spec %s: non-finite coefficient data", s.ID)
	}
	if !nonneg(s.Prev) || !nonneg(s.Warm) || !nonneg(s.Demand) {
		return errf("spec %s: prev/warm/demand must be finite and >= 0", s.ID)
	}
	so := []float64{s.Solver.Penalty, s.Solver.FeasTol, s.Solver.ObjTol, s.Solver.DualTol}
	if !finite(so) {
		return errf("spec %s: non-finite solver options", s.ID)
	}
	return nil
}

// Validate checks a solve request's coordinator-side fields; the target
// length is checked by the host against the block's NI.
func (r *SolveRequest) Validate() error {
	if r.ID == "" {
		return errf("solve: empty block ID")
	}
	if math.IsNaN(r.Rho) || math.IsInf(r.Rho, 0) || r.Rho <= 0 {
		return errf("solve %s: rho=%v, want finite > 0", r.ID, r.Rho)
	}
	if !finite(r.Target) {
		return errf("solve %s: non-finite target", r.ID)
	}
	return nil
}

// Validate checks a solve response.
func (r *SolveResponse) Validate() error {
	if !finite(r.Totals) {
		return errf("solve response: non-finite totals")
	}
	return nil
}

// Validate checks a state response.
func (r *StateResponse) Validate() error {
	if !nonneg(r.X) {
		return errf("state response: x must be finite and >= 0")
	}
	if !finite(r.Theta) {
		return errf("state response: non-finite theta")
	}
	return nil
}

// The Encode/Decode pairs below are the canonical codec: Encode is plain
// encoding/json over the struct (deterministic field order, shortest
// float representation), and Decode is Unmarshal followed by Validate.
// The pair is byte-stable — Encode(Decode(Encode(v))) == Encode(v) — the
// property FuzzShardRPCCodec pins.

// EncodeBlockSpec marshals a spec to its canonical wire form.
func EncodeBlockSpec(s *BlockSpec) []byte { return mustJSON(s) }

// DecodeBlockSpec parses and validates a wire spec.
func DecodeBlockSpec(data []byte) (*BlockSpec, error) {
	var s BlockSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, errf("spec: %v", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// EncodeSolveRequest marshals a solve request.
func EncodeSolveRequest(r *SolveRequest) []byte { return mustJSON(r) }

// DecodeSolveRequest parses and validates a wire solve request.
func DecodeSolveRequest(data []byte) (*SolveRequest, error) {
	var r SolveRequest
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, errf("solve: %v", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// EncodeSolveResponse marshals a solve response.
func EncodeSolveResponse(r *SolveResponse) []byte { return mustJSON(r) }

// DecodeSolveResponse parses and validates a wire solve response.
func DecodeSolveResponse(data []byte) (*SolveResponse, error) {
	var r SolveResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, errf("solve response: %v", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// EncodeStateResponse marshals a state response.
func EncodeStateResponse(r *StateResponse) []byte { return mustJSON(r) }

// DecodeStateResponse parses and validates a wire state response.
func DecodeStateResponse(data []byte) (*StateResponse, error) {
	var r StateResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, errf("state response: %v", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// mustJSON marshals a wire struct; the types above contain nothing
// json.Marshal can reject (Validate has excluded NaN/Inf).
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("shardrpc: marshal %T: %v", v, err))
	}
	return b
}
