// Package core implements the paper's primary contribution: the
// regularization-based online resource-allocation algorithm (§III) and its
// competitive-analysis machinery (§IV).
//
// At the start of every slot t the algorithm observes the current prices
// and user locations, takes the previous slot's decision x*_{·,·,t-1} as
// input, and optimally solves the convex program P2, whose objective is
// the slot's static cost plus two relative-entropy regularizers standing
// in for the reconfiguration and migration hinges:
//
//	Σ_ij a~_{ij,t}·x_ij
//	+ Σ_i  (c_i/η_i)  ((X_i +ε₁) ln((X_i +ε₁)/(X'_i +ε₁)) − X_i)
//	+ Σ_ij (b_i/τ_ij) ((x_ij+ε₂) ln((x_ij+ε₂)/(x'_ij+ε₂)) − x_ij)
//
// with X_i = Σ_j x_ij, η_i = ln(1+C_i/ε₁), τ_ij = ln(1+λ_j/ε₂) and
// b_i = b_i^out + b_i^in. The per-slot optima form a feasible solution of
// the original problem (Theorem 1) with competitive ratio 1 + γ|I|
// (Theorem 2).
//
// The rows it is solved under are demand Σ_i x_ij ≥ λ_j and explicit
// capacity Σ_j x_ij ≤ C_i (p2Constraints). The paper prints demand plus
// the complement-capacity rows Σ_{k≠i} X_k ≥ (Λ − C_i)⁺ instead; those
// alone do not keep the optimum within capacity (DESIGN.md §3b), and once
// the capacity rows are present they are implied, so the single program
// does not carry them. The ALM solver returns the multipliers θ', ν' of
// the demand and capacity rows, and the dual record keeps them as
// [θ | ν]: the paper's ρ' is zero, the point the certificate
// (certificate.go) constructs as well.
//
// P2 is one program and the package evaluates it through one type:
// p2Objective (objective.go) over a cloud-major CSR layout, whose per-row
// loops live in entropy.go. The solve paths differ only in the data they
// bind to it. The single-program loop (sparse.go) solves one ragged
// program, prices pruned pairs, and gates frozen users until a round
// changes nothing: the default path lays it over every pair (nothing
// pruned, nobody frozen, one round), Options.Candidates over each user's
// nearest clouds, and Options.Incremental adds an active mask
// (incremental.go). Options.Shards is a different algorithm —
// sharing-ADMM over blocks that are the same objective bound to a column
// range (shard.go), optionally hosted on RPC workers (shardhost.go) — and
// keeps its own solve loop built from the same bind and pricing pass; it
// does not compose with Options.Incremental.
// Step (this file) binds the slot, calls the driver, and records the
// decision in the run's decision log (schedlog.go), the duals, and the
// solve's diagnostics. The decision Step returns is a view of the carried
// state, valid until the next Step: copy it to keep it, or read Schedule.
package core

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"
	"unicode"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
	"edgealloc/internal/solver/transport"
	"edgealloc/internal/telemetry"
)

// Options tunes the online algorithm.
type Options struct {
	// Epsilon1 and Epsilon2 are the paper's ε₁ and ε₂ regularization
	// parameters (both default 1; Fig 4 sweeps them jointly).
	Epsilon1, Epsilon2 float64
	// Solver passes tolerances to the per-slot ALM solve. Zero values use
	// the package defaults tuned for the experiments. Solver.Workers also
	// bounds the intra-evaluation parallelism of P2's objective; results
	// are byte-identical for any value.
	Solver alm.Options
	// denseRows switches P2's constraints to the generic sparse-row
	// reference path (p2Constraints) instead of the structured group-sum
	// kernel (singleState.buildRows): O(I²·J) per Lagrangian evaluation
	// versus O(I·J). Its rows index the full layout with every user
	// active, so it is meaningful with Candidates, Incremental and Shards
	// off only. Unexported: only this package's structured-vs-dense
	// property tests set it.
	denseRows bool
	// Candidates > 0 enables the certified candidate-set solving path:
	// each slot, user j's variables are restricted to its Candidates
	// nearest clouds (by inter-cloud delay from the slot's attachment)
	// plus every cloud carrying flow from the previous slot, and the
	// reduced optimum is certified equal to the full P2 optimum by a
	// dual-feasibility pricing pass that re-admits mispriced pairs and
	// re-solves warm (see sparse.go). 0 keeps every pair, the program
	// Candidates = I builds.
	Candidates int
	// Shards > 0 enables the user-sharded dual-decomposition path: the J
	// users are split into Shards contiguous shards, each solving its
	// reduced P2 (static + migration + demand rows over its own users, on
	// its own ragged candidate set and ALM workspace) in parallel,
	// while a sharing-ADMM coordination loop on the per-cloud totals
	// (internal/solver/shard) carries the reconfiguration regularizer and
	// the capacity rows — a closed-form prox per cloud — and certifies the
	// assembled schedule primal-feasible and dual-consistent (see shard.go
	// and DESIGN.md §7e). 0 keeps the single-program paths bitwise
	// unchanged. Composes with Candidates and FastMath, not with
	// Incremental (Step refuses the pair); Solver.Workers bounds the number
	// of concurrently solving shards, and results are byte-identical for
	// any worker count.
	Shards int
	// ShardRho is the coordination loop's ADMM consensus penalty,
	// ShardMaxIters its iteration cap, and ShardPrimalTol/ShardDualTol
	// its consensus-residual and price-movement tolerances. Zero values
	// take the internal/solver/shard defaults (4, 60, 1e-8, 1e-6); only
	// meaningful with Shards > 0.
	ShardRho       float64
	ShardMaxIters  int
	ShardPrimalTol float64
	ShardDualTol   float64
	// ShardWorkers lists shard-worker base URLs (cmd/edgeshard instances,
	// e.g. "http://127.0.0.1:9711"). When non-empty and Shards > 0, each
	// shard block is placed on a worker round-robin and its consensus
	// x-steps run there over the shardrpc protocol, with the in-process
	// block kept as a warm mirror: worker failures retry with backoff,
	// worker restarts are replayed from the mirror's last round state, and
	// a worker that stays unreachable folds its blocks back into local
	// solving, so a run never fails because a worker died. Workers run the
	// identical solve code, so a clean-path distributed run is bitwise
	// equal to the in-process run. Empty (the default) keeps every solve
	// in-process and the sharded path bitwise unchanged.
	ShardWorkers []string
	// ShardRPCTimeout bounds one worker HTTP attempt and ShardRPCRetries
	// is the number of re-attempts after a retryable failure. Zero values
	// take the shardrpc defaults (30s, 2); negative retries disable
	// retrying. Only meaningful with ShardWorkers.
	ShardRPCTimeout time.Duration
	ShardRPCRetries int
	// CandidateTol is the reduced-cost tolerance of the pricing pass,
	// relative to 1 + |static coefficient| per pair (default 1e-7):
	// pruned pairs priced below −CandidateTol·(1+|ā_ij|) rejoin the
	// problem. Only meaningful with Candidates > 0.
	CandidateTol float64
	// Incremental enables event-driven incremental slot solving: at each
	// slot boundary the per-user delta is detected (attachment changed
	// versus the previous slot) and only the affected users' blocks are
	// re-solved, while unaffected users are held frozen at their carried
	// decision x'_{·j}. Every frozen user is then certified by a dual-
	// feasibility gate — the KKT stationarity of its column under the
	// solved slot's multipliers — and any violator is re-admitted to the
	// active set with the solve resuming warm, so the committed slot
	// matches the full per-slot optimum to the gate tolerance and stays
	// Theorem-1 feasible (frozen columns carry the previous feasible
	// decision; the reduced program solves under the residual capacities).
	// Composes with Candidates (frozen users drop out of the ragged
	// program entirely; without Candidates the active users solve over
	// all I clouds), not with Shards: Step and RestoreState refuse the
	// pair (Validate). Off by default; false leaves every
	// existing path bitwise unchanged.
	Incremental bool
	// IncrementalTol is the dual-feasibility tolerance of the freeze gate,
	// relative to 1 + |static coefficient| per pair (default 1e-7): a
	// frozen user is re-admitted when a support pair of its carried column
	// sits more than IncrementalTol·(1+|ā_ij|) above the column's minimum
	// reduced gradient, or below −IncrementalTol·(1+|ā_ij|). Smaller
	// values pin the incremental path tighter to the full solve at the
	// cost of more re-admissions under price drift. Only meaningful with
	// Incremental.
	IncrementalTol float64
	// FastMath routes the entropy hot loop through the batch kernels of
	// internal/numkernel: the per-variable migration logs are computed a
	// row at a time (ratio gather → LogBatch → accumulate) with the
	// denominator reciprocals precomputed once per slot, instead of the
	// default per-element divide + math.Log. Each kernel
	// operation is within 1e-12 relative of the stdlib, and end-to-end
	// schedule costs agree with the exact path to 1e-8 (pinned by
	// property tests and the conformance oracle); the trade is bitwise
	// reproducibility against the default path. Off by default.
	FastMath bool
	// Metrics optionally records per-slot solver telemetry (solve latency,
	// ALM outer and inner iteration counts, candidate-set expansion work, per-cloud
	// utilization) into the shared instrument bundle. Nil records nothing;
	// recording never changes results.
	Metrics *telemetry.SolverMetrics
}

// errIncrementalShards refuses Options.Incremental with Options.Shards: a
// shard could freeze only a whole block, and a block of a thousand users
// almost never sees a slot in which none re-attached (DESIGN.md §7f).
var errIncrementalShards = errors.New("core: Options.Incremental (-incremental) does not compose with Options.Shards (-shards)")

// Validate reports options no run can take, naming the field and, where
// it has one, the flag BindFlags gives it. Zero means the default
// everywhere; a negative, NaN or infinite ε or tier tolerance is refused,
// as are negative counts, Incremental with Shards, ShardWorkers without
// Shards, and the Solver options alm.Options.Validate refuses.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Epsilon1", o.Epsilon1}, {"Epsilon2", o.Epsilon2},
		{"CandidateTol", o.CandidateTol},
		{"IncrementalTol (-incremental-tol)", o.IncrementalTol},
		{"ShardPrimalTol", o.ShardPrimalTol}, {"ShardDualTol", o.ShardDualTol},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("core: Options.%s = %g, want finite and ≥ 0 (0 = default)", f.name, f.v)
		}
	}
	switch {
	case o.Candidates < 0:
		return fmt.Errorf("core: Options.Candidates = %d, want ≥ 0", o.Candidates)
	case o.Shards < 0:
		return fmt.Errorf("core: Options.Shards (-shards) = %d, want ≥ 0", o.Shards)
	case o.Solver.Workers < 0:
		return fmt.Errorf("core: Options.Solver.Workers = %d, want ≥ 0", o.Solver.Workers)
	case o.Incremental && o.Shards > 0:
		return errIncrementalShards
	case len(o.ShardWorkers) > 0 && o.Shards == 0:
		return errors.New("core: Options.ShardWorkers (-shard-workers) requires Options.Shards (-shards)")
	}
	return o.Solver.Validate()
}

func (o Options) withDefaults() Options {
	if o.Epsilon1 <= 0 {
		o.Epsilon1 = 1
	}
	if o.Epsilon2 <= 0 {
		o.Epsilon2 = 1
	}
	o.Solver = o.Solver.Or(alm.Options{MaxOuter: 60, InnerIters: 900, FeasTol: 1e-7, Penalty: 2})
	if o.CandidateTol <= 0 {
		o.CandidateTol = 1e-7
	}
	if o.IncrementalTol <= 0 {
		o.IncrementalTol = 1e-7
	}
	return o
}

// BindFlags binds the solve-tier flags every CLI shares straight into o,
// so a command carries an Options value instead of re-declaring its fields.
// -shard-workers is a comma-separated list; blank items are dropped.
func (o *Options) BindFlags(fs *flag.FlagSet) {
	fs.BoolVar(&o.FastMath, "fastmath", false, "evaluate the entropy terms with the batch fast-math kernels (costs agree with the exact path to 1e-8; not bitwise-reproducible against it)")
	fs.IntVar(&o.Shards, "shards", 0, "split each per-slot solve across this many user shards coordinated by consensus ADMM (0 = single program)")
	fs.Func("shard-workers", "comma-separated shard-worker base `URLs` (cmd/edgeshard, e.g. http://127.0.0.1:9711,http://127.0.0.1:9712) to place the shard blocks on over RPC; dead workers fold back to local solving (requires -shards)", func(s string) error {
		o.ShardWorkers = strings.FieldsFunc(s, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
		return nil
	})
	fs.BoolVar(&o.Incremental, "incremental", false, "solve slots incrementally: re-solve only users whose attachment changed, gated by dual feasibility")
	fs.Float64Var(&o.IncrementalTol, "incremental-tol", 0, "relative dual-feasibility tolerance of the incremental gate (0 = package default)")
}

// OnlineApprox runs the paper's online algorithm over an instance,
// recording per-slot decisions and dual multipliers.
//
// Each OnlineApprox owns its solver workspace and per-instance caches, so
// distinct instances may run concurrently; a single OnlineApprox must not
// be shared between goroutines.
type OnlineApprox struct {
	inst *model.Instance
	opts Options
	// err is what Validate said of the options; Step, Solve and
	// RestoreState return it.
	err error

	prev model.Alloc // x*_{·,·,t-1}
	// before is prev's predecessor, the decision the last committed slot
	// moved away from (Transition); unset while that slot is slot 0.
	before model.Alloc
	slot   int

	// log holds one record per committed slot (schedlog.go).
	log []slotRecord
	// duals[t] is slot t's accepted multiplier vector [θ (J) | ν (I)]:
	// the multipliers θ'_{j,t} of P2's demand rows and ν'_{i,t} of the
	// explicit capacity rows. The last row
	// is also the next slot's warm start. The solver's Result.Duals alias
	// workspace memory that a later (possibly cancelled) solve scribbles
	// over, so a row is copied out only once its slot succeeded: a Step
	// aborted by context cancellation leaves the warm state of the next
	// Step exactly as the last successful slot wrote it.
	duals [][]float64

	// Per-instance caches, lazily built on the first Step: P2's constraint
	// geometry and the objective's entropy constants are slot-independent,
	// and the ALM workspace makes repeated Step calls allocation-free in
	// the solver hot path. obj holds the slot's dense data, which every
	// layout gathers from; exactly one of single and shrd is the solve
	// state. prev is the last committed decision itself — a grid of the
	// log, or one of singleState.grids — userTot is the repair scratch, and
	// dualBuf (T rows of J+I) backs the per-slot dual records. A
	// steady-state Step allocates only its log record: the decision grid
	// on an all-active slot, the written columns on an incremental one.
	obj      *p2Objective
	single   *singleState
	shrd     *shardState
	prob     alm.Problem
	ws       alm.Workspace
	userTot  []float64
	dualBuf  []float64
	lastDiag StepDiag
}

// StepDiag describes the solver work of the most recent successful Step:
// the per-slot numbers the telemetry layer exports and the serving
// daemon returns to clients.
type StepDiag struct {
	// Slot is the slot the diagnostics describe.
	Slot int
	// Seconds is the wall-clock duration of the P2 solve (including
	// candidate expansion rounds, excluding schedule bookkeeping).
	Seconds float64
	// BindSeconds, CertifySeconds and CommitSeconds are the slot's other
	// phases: writing the slot's static coefficients before the solve; the
	// pricing pass and the freeze gate, summed over the rounds (a part of
	// Seconds); and everything that turns the solution into the committed
	// decision — on the single program bringing the spare grid level with
	// the carried one before the solve, on the sharded path copying the
	// assembled decision out, then the repair, the log record, the carried
	// totals and the dual record. Bind, solve and commit add up to the
	// Step's wall time. Omitted from JSON when zero, like Stop and Residual.
	BindSeconds    float64 `json:",omitempty"`
	CertifySeconds float64 `json:",omitempty"`
	CommitSeconds  float64 `json:",omitempty"`
	// Outer and Inner are the ALM multiplier updates and inner-solver
	// iterations (projected Newton steps; FISTA iterations on denseRows)
	// spent on the slot, summed over candidate expansion rounds; on the
	// sharded path they sum the block solves (the coordinator's consensus
	// step is closed-form and iterates nothing).
	Outer, Inner int
	// Evals counts the gradient evaluations of the same solves
	// (alm.Result.Evals), summed the same way, except that a shard block
	// solved on a remote worker adds none: the wire does not carry it.
	// Omitted from JSON when zero, so slot records written before the field
	// existed decode and re-encode unchanged.
	Evals int `json:",omitempty"`
	// DualSteps and DualRefused count the multiplier updates of the same
	// solves that took the second-order step and those that were eligible
	// for it but refused it on a singular system (alm.Result), summed the
	// same way as Evals; every other update was first order. Omitted from
	// JSON when zero, like Evals.
	DualSteps   int `json:",omitempty"`
	DualRefused int `json:",omitempty"`
	// Converged reports whether the final ALM solve met its tolerances.
	Converged bool
	// CandRounds, CandExpanded, and CandNNZ describe the certified solve
	// loop: reduced solves, pairs re-admitted by pricing, and the certified
	// solve's packed size. Every slot reports them; with Candidates off the
	// single program reports one round over I·J pairs.
	CandRounds, CandExpanded, CandNNZ int
	// ShardIters, ShardResidual, and ShardMaxSeconds describe the sharded
	// coordination path (zero when Options.Shards is off): outer dual-
	// ascent iterations spent on the slot, the final max consensus/
	// capacity residual, and the slowest shard's cumulative solve time.
	ShardIters      int
	ShardResidual   float64
	ShardMaxSeconds float64
	// ShardRestored is the mass the capacity restoration moved on the slot
	// (restoreCapacity): round-off unless the coordination loop stopped at
	// ShardMaxIters. Omitted from JSON when zero, like Evals.
	ShardRestored float64 `json:",omitempty"`
	// LogCacheHits and LogCacheMisses are retired and always zero: the
	// memo they counted is gone. They stay only because bench/pass.go
	// reads them; ROADMAP item 2(a) drops them with core.logcache_hit_frac.
	LogCacheHits, LogCacheMisses int64
	// FrozenUsers and ReadmittedUsers describe the incremental path (zero
	// when Options.Incremental is off): users held at their carried
	// decision when the slot was committed, and users the soundness gate
	// re-admitted to the active set during the slot.
	FrozenUsers, ReadmittedUsers int
	// Stop and Residual say how the slot's final single-program ALM solve
	// ended: which test of the stop rule it met or was failing at the
	// outer cap, and its last feasibility-and-complementarity residual σ
	// (alm.Result.Stop and Sigma). Both are zero when no such solve ran —
	// the sharded path, or a slot with every user frozen — and are omitted
	// from JSON then, so slot records written before the fields existed
	// decode and re-encode unchanged. JSON carries Stop by name
	// ("objective"), not by the constant's value.
	Stop     alm.Stop `json:",omitempty"`
	Residual float64  `json:",omitempty"`
	// Stationarity says how stationary that solve left its point: the
	// projected-gradient norm ‖x − P(x − ∇L)‖∞ of the augmented Lagrangian
	// at the returned point under the final multipliers, relative to 1+|L|
	// (alm.Result.ProjGrad). A converged solve has it within the solver's
	// FeasTol; at the outer or inner cap it says how far short the slot
	// fell. Zero, and omitted from JSON, where Stop and Residual are, and on
	// the sparse-row reference path, whose FISTA inner solve measures none.
	Stationarity float64 `json:",omitempty"`
}

// NewOnlineApprox prepares a run over a validated instance; options that
// Validate refuses make Step, Solve and RestoreState fail with its error. A nil
// instance is allowed for an algorithm object that will only be used
// through Solve (which binds the instance passed to it); Step and Run
// require a non-nil instance.
func NewOnlineApprox(inst *model.Instance, opts Options) *OnlineApprox {
	o := &OnlineApprox{
		inst: inst,
		opts: opts.withDefaults(),
		err:  opts.Validate(),
	}
	if inst != nil {
		o.prev = inst.InitialAlloc()
	}
	return o
}

// Name identifies the algorithm in experiment output.
func (o *OnlineApprox) Name() string { return "online-approx" }

// Step solves P2 for slot t (which must be the next unprocessed slot) and
// returns the allocation decision. The decision is a view of the
// algorithm's carried state, valid until the next Step: a caller that
// keeps it copies it, or reads Schedule, which keeps every slot.
// Transition returns the same view beside its predecessor's; the decision
// also outlives a Step that fails, its predecessor does not.
func (o *OnlineApprox) Step(t int) (model.Alloc, error) {
	return o.StepCtx(context.Background(), t)
}

// StepCtx is Step with cooperative cancellation: the context is polled
// once per outer and once per inner-solver iteration of the per-slot
// solve, so a cancelled or timed-out ctx aborts the slot promptly with an
// error wrapping ctx.Err(). A cancelled Step leaves the algorithm state
// exactly as the previous successful slot left it — the previous decision,
// the warm-start multipliers, and the slot counter are untouched — so the
// same slot can be retried (and produces the same decision an uncancelled
// run would have). Like Step's, the returned decision is valid until the
// next Step.
func (o *OnlineApprox) StepCtx(ctx context.Context, t int) (model.Alloc, error) {
	if ctx != nil && ctx.Done() == nil {
		// Never-cancellable context (Background/TODO): skip polling so the
		// solver hot loop stays branch-for-branch identical to Step.
		ctx = nil
	}
	if o.err != nil {
		return model.Alloc{}, o.err
	}
	if t != o.slot {
		return model.Alloc{}, fmt.Errorf("core: Step(%d) out of order, expected %d", t, o.slot)
	}
	in := o.inst
	o.ensureInit(in)
	bindStart := time.Now()
	o.obj.bindStatic(in, t)

	// The single program assembles the decision in place, in the spare of
	// its two grids brought level with the carried decision (solveSingle),
	// which stays unwritten; the sharded path returns scratch that is
	// copied out once the slot has succeeded.
	copyStart := time.Now()
	s := o.single
	var img []float64
	if s != nil {
		img = s.grids.level(o.prev.X, in.J)
	}

	solveStart := time.Now()
	var xSrc, duals []float64
	var diag StepDiag
	var err error
	if s == nil {
		xSrc, duals, diag, err = o.solveShard(ctx, t)
	} else {
		xSrc, duals, diag, err = o.solveSingle(ctx, t, img)
	}
	if err != nil {
		if s != nil {
			// Its rounds may have scattered into the active columns.
			s.grids.dirty(s.actList)
		}
		return model.Alloc{}, fmt.Errorf("core: slot %d: %w", t, err)
	}

	// Commit. Nothing above wrote cross-slot state, so a Step cancelled
	// there leaves it as the last committed slot did; from here the
	// returned decision is also the next slot's carried one.
	commitStart := time.Now()
	x := model.Alloc{I: in.I, J: in.J, X: xSrc}
	if s != nil {
		s.repairTouched(in, x, o.userTot)
		if len(s.visit) == in.J {
			o.log = append(o.log, slotRecord{vals: s.grids.release()})
			s.support.fresh = false
		} else {
			o.log = append(o.log, columnRecord(x.X, in.I, in.J, s.visit))
			s.grids.commit(s.visit)
			s.support.refresh(x.X, s.visit)
		}
	} else {
		x.X = append([]float64(nil), xSrc...)
		in.Repair(x, o.userTot)
		o.log = append(o.log, slotRecord{vals: x.X})
	}
	if t > 0 {
		// Slot 0's predecessor, the pre-horizon grid, is not kept past it:
		// Transition rebuilds it.
		o.before = o.prev
	}
	o.prev = x
	o.obj.carry(x)
	o.recordDuals(duals)
	done := time.Now()

	diag.Slot = t
	diag.BindSeconds = copyStart.Sub(bindStart).Seconds()
	diag.Seconds = commitStart.Sub(solveStart).Seconds()
	diag.CommitSeconds = solveStart.Sub(copyStart).Seconds() + done.Sub(commitStart).Seconds()
	o.lastDiag = diag
	if m := o.opts.Metrics; m != nil {
		d := &o.lastDiag
		m.ObserveStep(d.Seconds, d.Outer, d.Inner, d.Converged)
		m.ObserveCandidates(d.CandRounds, d.CandExpanded, d.CandNNZ)
		if o.shrd != nil {
			m.ObserveShards(d.ShardIters, d.ShardResidual, o.shrd.blockSecs)
		}
		if o.opts.Incremental {
			m.ObserveIncremental(d.FrozenUsers, d.ReadmittedUsers, d.Seconds)
		}
		// The committed decision's per-cloud totals are the next slot's
		// X'_i, which carry just computed.
		for i, tot := range o.obj.prevTot {
			m.SetCloudUtilization(i, tot/in.Capacity[i])
		}
	}

	o.slot++
	return x, nil
}

// collectFirstBytes is the size of the schedule a run will retain (T dense
// I×J decisions) from which ensureInit collects before it allocates.
const collectFirstBytes = 16 << 20

// ensureInit lazily builds the per-instance caches on the first Step (or
// on RestoreState): P2's constraint geometry and the objective's entropy
// constants are slot-independent, and the ALM workspace makes repeated
// Step calls allocation-free in the solver hot path.
//
// A run produces next to no garbage: nearly everything it allocates — the
// schedule above all — stays live until the run itself is dropped, at which
// point all of it is garbage at once. Under the runtime's pacer a process
// that solves instances back to back (experiment repetitions, a daemon's
// sessions, the benchmark's episodes) therefore peaks anywhere between one
// and two runs' worth of memory, decided by where in the predecessor the
// last collection happened to fall: flagship_full's child process (I=50,
// J=5000, T=15, three runs) peaked at 71–97 MB from one execution to the
// next, in clusters, and at 62 MB every time with the collection below
// (DESIGN.md §7). It sits where the predecessor is dead and this run holds
// nothing yet, costs one mark of the live heap per run, and is skipped for
// runs too small to matter, which are also the ones created by the thousand.
func (o *OnlineApprox) ensureInit(in *model.Instance) {
	if o.obj != nil {
		return
	}
	if 8*in.T*in.I*in.J >= collectFirstBytes {
		runtime.GC()
	}
	o.obj = newP2ObjectiveConst(in, o.opts.Epsilon1, o.opts.Epsilon2, o.opts.FastMath)
	o.obj.workers = o.opts.Solver.Workers
	if o.opts.Shards > 0 {
		o.initShard(in)
	} else {
		o.initSingle(in)
	}
	o.obj.carry(o.prev)
	o.userTot = make([]float64, in.J)
	o.dualBuf = make([]float64, in.T*(in.J+in.I))
	o.log = make([]slotRecord, 0, in.T)
	o.duals = make([][]float64, 0, in.T)
}

// recordDuals copies the next slot's accepted multipliers into its row of
// the dual record.
func (o *OnlineApprox) recordDuals(duals []float64) {
	n, t := o.inst.J+o.inst.I, len(o.duals)
	row := o.dualBuf[t*n : (t+1)*n]
	copy(row, duals)
	o.duals = append(o.duals, row)
}

// LastStepDiag returns the solver diagnostics of the most recent
// successful Step (the zero value before any slot has been solved).
func (o *OnlineApprox) LastStepDiag() StepDiag { return o.lastDiag }

// Transition returns the last committed slot's decision, cur, and the one
// it moved away from, prev, as views that Schedule's slots t−1 and t equal
// bit for bit, without building either; for slot 0, prev is a fresh copy
// of the pre-horizon allocation. Both are valid until the next Step; cur
// also survives a Step that fails, prev does not (the single program
// assembles the next decision in prev's buffer). Before any slot is
// committed both are meaningless.
func (o *OnlineApprox) Transition() (prev, cur model.Alloc) {
	if o.slot == 1 {
		return o.inst.InitialAlloc(), o.prev
	}
	return o.before, o.prev
}

// Run executes all remaining slots and returns the full schedule.
func (o *OnlineApprox) Run() (model.Schedule, error) {
	for t := o.slot; t < o.inst.T; t++ {
		if _, err := o.Step(t); err != nil {
			return nil, err
		}
	}
	return o.Schedule(), nil
}

// Solve runs the algorithm on a fresh state over the whole instance. It
// is the entry point used by the simulator.
func (o *OnlineApprox) Solve(in *model.Instance) (model.Schedule, error) {
	if o.err != nil {
		return nil, o.err
	}
	fresh := NewOnlineApprox(in, o.opts)
	s, err := fresh.Run()
	if err != nil {
		return nil, err
	}
	// Keep the dual record available for certification.
	*o = *fresh
	return s, nil
}

// Duals returns the recorded multipliers of the slots processed so far,
// one [θ (J) | ν (I)] row per slot. The returned slices alias
// internal state and must not be modified.
func (o *OnlineApprox) Duals() [][]float64 { return o.duals }

// p2Constraints builds the rows the single program solves under: demand
// Σ_i x_ij ≥ λ_j for every user, then explicit capacity Σ_j x_ij ≤ C_i for
// every cloud. It is the generic sparse-row reference of
// singleState.buildRows (Options.denseRows).
//
// The paper's P2 enforces capacity through the complement rows
// Σ_{k≠i} Σ_j x_kj ≥ (Λ − C_i)⁺ instead, and Theorem 1 claims they keep
// the optimum within capacity. That claim has a gap — when one cloud is
// much cheaper than the rest, the literal optimum over-serves demand,
// parks the complement-row padding on other clouds, and pushes the cheap
// cloud beyond C_i (DESIGN.md §3b). The explicit rows restore the
// evidently intended feasibility, and with them the complement rows are
// implied (summing the demand rows and capacity row i gives complement row
// i), so the program carries demand + capacity only; the literal rows
// survive as the test-only p2ComplementRows.
func p2Constraints(in *model.Instance) []alm.Constraint {
	nI, nJ := in.I, in.J
	cons := make([]alm.Constraint, 0, nJ+nI)
	for j := 0; j < nJ; j++ {
		idx := make([]int, nI)
		coef := make([]float64, nI)
		for i := 0; i < nI; i++ {
			idx[i] = i*nJ + j
			coef[i] = 1
		}
		cons = append(cons, alm.Constraint{Idx: idx, Coeffs: coef, RHS: in.Workload[j]})
	}
	for i := 0; i < nI; i++ {
		idx := make([]int, nJ)
		coef := make([]float64, nJ)
		for j := 0; j < nJ; j++ {
			idx[j] = i*nJ + j
			coef[j] = -1
		}
		cons = append(cons, alm.Constraint{Idx: idx, Coeffs: coef, RHS: -in.Capacity[i]})
	}
	return cons
}

// allZero reports whether every entry of v is zero.
func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// warmPoint returns the dense point slot t's solve starts from: the
// previous decision, except that the pruning candidate-set paths (sharded
// or not) leave the formal model's x_{·,·,0} = 0 from the slot's
// static-cost transportation optimum. A candidate-set user's pairs are
// seeded from its nearest clouds plus the warm point's support, and from
// the zero point that is the nearest k < I clouds alone, whose capacities
// need not cover their users — the reduced program is then infeasible, its
// multipliers diverge,
// and the pricing pass admits pairs on garbage prices (without the
// fallback TestSparseMatchesDenseSlotCoupledRome's slot 0 ends 19% above
// the dense optimum and FuzzCandidateVsDense's seeds 2–33%). The support
// of any feasible point makes the reduced program feasible; every later
// slot inherits feasibility from the carried decision's support. A program
// over every pair, single or sharded, has no such problem and starts from
// zero.
func (o *OnlineApprox) warmPoint(t int) []float64 {
	pruned := o.opts.Candidates > 0 && o.opts.Candidates < o.inst.I
	if t == 0 && pruned && allZero(o.prev.X) {
		if warm, err := feasibleWarmStart(o.inst, t); err == nil {
			return warm
		}
	}
	return o.prev.X
}

// feasibleWarmStart returns the slot's static-cost transportation optimum,
// a demand-tight point satisfying all of P2's constraints.
func feasibleWarmStart(in *model.Instance, t int) ([]float64, error) {
	cost := make([][]float64, in.I)
	coef := in.StaticCoeff(t)
	for i := range cost {
		cost[i] = coef[i*in.J : (i+1)*in.J]
	}
	sol, err := transport.Solve(&transport.Problem{
		Cost:   cost,
		Supply: in.Capacity,
		Demand: in.Workload,
	})
	if err != nil {
		return nil, err
	}
	warm := make([]float64, in.I*in.J)
	for i := 0; i < in.I; i++ {
		copy(warm[i*in.J:(i+1)*in.J], sol.Flow[i])
	}
	return warm, nil
}

// CompetitiveRatioBound returns Theorem 2's certified ratio r = 1 + γ|I|
// for the bound instance under the run's ε parameters, or 0 when no
// instance is bound yet. It implements the harness's RatioBounder
// interface so the conformance oracle can check the achieved cost
// against the certificate.
func (o *OnlineApprox) CompetitiveRatioBound() float64 {
	if o.inst == nil {
		return 0
	}
	return RatioBound(o.inst, o.opts.Epsilon1, o.opts.Epsilon2)
}

// RatioBound returns the paper's parameterized competitive ratio
// r = 1 + γ|I| with
// γ = max_i{(C_i+ε₁)ln(1+C_i/ε₁), (C_i+ε₂)ln(1+C_i/ε₂)} (Theorem 2).
func RatioBound(in *model.Instance, eps1, eps2 float64) float64 {
	gamma := 0.0
	for _, c := range in.Capacity {
		if v := (c + eps1) * math.Log1p(c/eps1); v > gamma {
			gamma = v
		}
		if v := (c + eps2) * math.Log1p(c/eps2); v > gamma {
			gamma = v
		}
	}
	return 1 + gamma*float64(in.I)
}
