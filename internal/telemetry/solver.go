package telemetry

import "strconv"

// SolverMetrics is the canonical instrument bundle for the allocation
// pipeline. Both the serving daemon (internal/serve) and the batch CLI
// (edgesim) build it from the same constructor, so a scrape of either
// reports the same metric names (documented in DESIGN.md §9):
//
//	edgealloc_solver_step_seconds              histogram  per-slot P2 solve latency
//	edgealloc_solver_steps_total               counter    slots solved
//	edgealloc_solver_steps_nonconverged_total  counter    slots where ALM hit MaxOuter
//	edgealloc_solver_alm_outer_iterations_total    counter  ALM multiplier updates
//	edgealloc_solver_inner_iterations_total        counter  inner-solver iterations (projected Newton steps)
//	edgealloc_solver_candidate_rounds_total        counter  certified solve rounds (≥1/slot)
//	edgealloc_solver_candidate_expanded_pairs_total counter pairs re-admitted by pricing
//	edgealloc_solver_candidate_nnz                 gauge    Σ_j|K_j| of the last certified solve
//	edgealloc_solver_shard_outer_iterations_total  counter  shard coordination (dual-ascent) iterations
//	edgealloc_solver_shard_max_residual            gauge    final consensus/capacity residual of the last slot
//	edgealloc_solver_shard_solve_seconds           histogram per-shard cumulative solve time per slot
//	edgealloc_solver_shardrpc_calls_total          counter  shard-RPC attempts (per HTTP attempt, retries included)
//	edgealloc_solver_shardrpc_retries_total        counter  shard-RPC re-attempts after a retryable failure
//	edgealloc_solver_shardrpc_bytes_total          counter  shard-RPC request+response body bytes
//	edgealloc_solver_shardrpc_seconds_total        counter  cumulative shard-RPC wall time
//	edgealloc_solver_shardrpc_fallbacks_total      counter  remote blocks folded back into local solving
//	edgealloc_solver_incr_frozen_users             counter  users held at their carried decision (incremental path)
//	edgealloc_solver_incr_readmitted_users         counter  frozen users re-admitted by the soundness gate
//	edgealloc_solver_incr_solve_seconds            histogram per-slot solve latency of incremental slots
//	edgealloc_cloud_utilization{cloud=i}           gauge    Σ_j x_{i,j,t}/C_i at the last solved slot
//	edgealloc_conform_violations_total{kind=k}     counter  oracle findings by guarantee kind
//	edgealloc_sim_runs_total                       counter  completed harness runs
//	edgealloc_sim_solve_seconds                    histogram full-horizon Solve latency
//
// All methods are nil-safe: a nil *SolverMetrics records nothing, so the
// hot paths hook unconditionally and pay one pointer test when telemetry
// is off.
type SolverMetrics struct {
	StepLatency  *Histogram
	Steps        *Counter
	NonConverged *Counter
	OuterIters   *Counter
	InnerIters   *Counter
	CandRounds   *Counter
	CandExpanded *Counter
	CandNNZ      *Gauge
	ShardIters   *Counter
	ShardResid   *Gauge
	ShardSolve   *Histogram
	RPCCalls     *Counter
	RPCRetries   *Counter
	RPCBytes     *Counter
	RPCSeconds   *Counter
	RPCFallbacks *Counter
	IncrFrozen   *Counter
	IncrReadmit  *Counter
	IncrSolve    *Histogram
	CloudUtil    *GaugeVec
	ConformViol  *CounterVec
	SimRuns      *Counter
	SimSolveHist *Histogram
}

// NewSolverMetrics registers the bundle on r.
func NewSolverMetrics(r *Registry) *SolverMetrics {
	return &SolverMetrics{
		StepLatency: r.Histogram("edgealloc_solver_step_seconds",
			"Per-slot P2 solve latency in seconds.", nil),
		Steps: r.Counter("edgealloc_solver_steps_total",
			"Slots solved by the online algorithm."),
		NonConverged: r.Counter("edgealloc_solver_steps_nonconverged_total",
			"Slots whose ALM solve stopped at the outer-iteration cap."),
		OuterIters: r.Counter("edgealloc_solver_alm_outer_iterations_total",
			"ALM outer (multiplier-update) iterations."),
		InnerIters: r.Counter("edgealloc_solver_inner_iterations_total",
			"Inner-solver iterations across all subproblems (projected Newton steps)."),
		CandRounds: r.Counter("edgealloc_solver_candidate_rounds_total",
			"Certified solve rounds, at least one per slot (rounds beyond one are pricing expansions, freeze-gate re-admissions, or on the sharded path further coordination rounds)."),
		CandExpanded: r.Counter("edgealloc_solver_candidate_expanded_pairs_total",
			"(cloud,user) pairs re-admitted by the dual pricing pass."),
		CandNNZ: r.Gauge("edgealloc_solver_candidate_nnz",
			"Packed variable count of the most recent certified solve (I·J when nothing is pruned)."),
		ShardIters: r.Counter("edgealloc_solver_shard_outer_iterations_total",
			"Shard-coordination outer dual-ascent iterations (zero when sharding is off)."),
		ShardResid: r.Gauge("edgealloc_solver_shard_max_residual",
			"Final max consensus/capacity residual of the most recent sharded slot."),
		ShardSolve: r.Histogram("edgealloc_solver_shard_solve_seconds",
			"Per-shard cumulative subproblem solve time within one slot, in seconds.", nil),
		RPCCalls: r.Counter("edgealloc_solver_shardrpc_calls_total",
			"Shard-RPC HTTP attempts (retries counted individually; zero without -shard-workers)."),
		RPCRetries: r.Counter("edgealloc_solver_shardrpc_retries_total",
			"Shard-RPC re-attempts after a retryable failure (timeouts, transport errors, 5xx)."),
		RPCBytes: r.Counter("edgealloc_solver_shardrpc_bytes_total",
			"Shard-RPC request and response body bytes."),
		RPCSeconds: r.Counter("edgealloc_solver_shardrpc_seconds_total",
			"Cumulative wall time spent in shard-RPC calls, in seconds."),
		RPCFallbacks: r.Counter("edgealloc_solver_shardrpc_fallbacks_total",
			"Remote shard blocks folded back into local solving after exhausted retries."),
		IncrFrozen: r.Counter("edgealloc_solver_incr_frozen_users",
			"Users held at their carried decision by the incremental path (zero when incremental solving is off)."),
		IncrReadmit: r.Counter("edgealloc_solver_incr_readmitted_users",
			"Frozen users re-admitted to the active set by the dual-feasibility soundness gate."),
		IncrSolve: r.Histogram("edgealloc_solver_incr_solve_seconds",
			"Per-slot solve latency of incremental-path slots, in seconds.", nil),
		CloudUtil: r.GaugeVec("edgealloc_cloud_utilization",
			"Per-cloud utilization sum_j x_ij / C_i at the most recent solved slot.", "cloud"),
		ConformViol: r.CounterVec("edgealloc_conform_violations_total",
			"Paper-conformance oracle findings by guarantee kind.", "kind"),
		SimRuns: r.Counter("edgealloc_sim_runs_total",
			"Completed simulation-harness runs."),
		SimSolveHist: r.Histogram("edgealloc_sim_solve_seconds",
			"Full-horizon Solve latency of harness runs in seconds.", nil),
	}
}

// ObserveStep records one per-slot solve: latency, iteration counts, and
// convergence.
func (m *SolverMetrics) ObserveStep(seconds float64, outer, inner int, converged bool) {
	if m == nil {
		return
	}
	m.StepLatency.Observe(seconds)
	m.Steps.Inc()
	m.OuterIters.Add(float64(outer))
	m.InnerIters.Add(float64(inner))
	if !converged {
		m.NonConverged.Inc()
	}
}

// ObserveCandidates records the candidate-set work of one slot.
func (m *SolverMetrics) ObserveCandidates(rounds, expandedPairs, finalNNZ int) {
	if m == nil {
		return
	}
	m.CandRounds.Add(float64(rounds))
	m.CandExpanded.Add(float64(expandedPairs))
	m.CandNNZ.Set(float64(finalNNZ))
}

// ObserveShards records one sharded slot's coordination work: outer
// dual-ascent iterations, the final consensus/capacity residual, and each
// shard's cumulative solve time.
func (m *SolverMetrics) ObserveShards(iters int, maxResidual float64, blockSeconds []float64) {
	if m == nil {
		return
	}
	m.ShardIters.Add(float64(iters))
	m.ShardResid.Set(maxResidual)
	for _, s := range blockSeconds {
		m.ShardSolve.Observe(s)
	}
}

// ObserveShardRPCAttempt records one shard-RPC HTTP attempt: its wall
// time, the body bytes moved, and whether it was a retry.
func (m *SolverMetrics) ObserveShardRPCAttempt(seconds float64, bytes int64, retry bool) {
	if m == nil {
		return
	}
	m.RPCCalls.Inc()
	m.RPCBytes.Add(float64(bytes))
	m.RPCSeconds.Add(seconds)
	if retry {
		m.RPCRetries.Inc()
	}
}

// CountShardRPCFallback tallies one remote block folded back into local
// solving.
func (m *SolverMetrics) CountShardRPCFallback() {
	if m == nil {
		return
	}
	m.RPCFallbacks.Inc()
}

// ObserveIncremental records one incremental-path slot: users held
// frozen when the slot committed, users the soundness gate re-admitted,
// and the slot's solve latency.
func (m *SolverMetrics) ObserveIncremental(frozen, readmitted int, seconds float64) {
	if m == nil {
		return
	}
	m.IncrFrozen.Add(float64(frozen))
	m.IncrReadmit.Add(float64(readmitted))
	m.IncrSolve.Observe(seconds)
}

// SetCloudUtilization records cloud i's utilization at the latest slot.
func (m *SolverMetrics) SetCloudUtilization(cloud int, util float64) {
	if m == nil {
		return
	}
	m.CloudUtil.With(strconv.Itoa(cloud)).Set(util)
}

// CountViolation tallies one conformance-oracle finding of the given kind.
func (m *SolverMetrics) CountViolation(kind string) {
	if m == nil {
		return
	}
	m.ConformViol.With(kind).Inc()
}

// ObserveRun records one completed harness run.
func (m *SolverMetrics) ObserveRun(solveSeconds float64) {
	if m == nil {
		return
	}
	m.SimRuns.Inc()
	m.SimSolveHist.Observe(solveSeconds)
}
