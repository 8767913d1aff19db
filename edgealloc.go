// Package edgealloc is a Go implementation of online resource allocation
// for mobile users in distributed edge clouds, reproducing the algorithm
// and evaluation of
//
//	Wang, Jiao, Li, Mühlhäuser — "Online Resource Allocation for
//	Arbitrary User Mobility in Distributed Edge Clouds", ICDCS 2017.
//
// The library models a time-slotted system of edge clouds serving mobile
// users under four costs (operation, service quality, reconfiguration,
// migration) and provides:
//
//   - the paper's regularization-based online algorithm with the
//     parameterized competitive ratio r = 1 + γ|I| (NewOnlineApprox),
//     including a per-run dual certificate lower-bounding the offline
//     optimum;
//   - the full §V-B baseline roster: online-greedy, perf-opt, oper-opt,
//     stat-opt, a never-adapting static policy, and the offline optimum;
//   - scenario builders for the Rome-metro taxi setting and the §V-D
//     random-walk setting, with the §V-A price processes;
//   - a simulation harness and reproduction drivers for every figure of
//     the paper's evaluation.
//
// # Quick start
//
//	in, _, err := edgealloc.RomeScenario(edgealloc.ScenarioConfig{
//		Users: 40, Horizon: 30, Seed: 1,
//	})
//	if err != nil { ... }
//	run, err := edgealloc.Execute(in, edgealloc.NewOnlineApprox(edgealloc.ApproxOptions{}))
//	if err != nil { ... }
//	fmt.Println(run.Total, run.Breakdown)
//
// All heavy numerical machinery (two-phase simplex, augmented-Lagrangian
// and FISTA solvers, a transportation solver) is hand-rolled on the
// standard library; see DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
package edgealloc

import (
	"io"

	"edgealloc/internal/baseline"
	"edgealloc/internal/core"
	"edgealloc/internal/experiments"
	"edgealloc/internal/mobility"
	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/sim"
)

// Core model types.
type (
	// Instance is a complete problem instance over a horizon (see the
	// field documentation for the paper's notation).
	Instance = model.Instance
	// Alloc is one slot's allocation matrix x[i][j].
	Alloc = model.Alloc
	// Schedule is an allocation per slot.
	Schedule = model.Schedule
	// Breakdown holds the four unweighted cost components.
	Breakdown = model.Breakdown
	// Trace is a user-mobility record (attachments + access distances).
	Trace = mobility.Trace
	// ScenarioConfig parameterizes the scenario builders.
	ScenarioConfig = scenario.Config
)

// Algorithm types.
type (
	// Algorithm is any allocation policy runnable by Execute.
	Algorithm = sim.Algorithm
	// Run is the outcome of one execution: schedule, costs, timing.
	Run = sim.Run
	// Stats summarizes repeated measurements.
	Stats = sim.Stats
	// ApproxOptions tunes the paper's online algorithm (ε₁, ε₂, solver).
	ApproxOptions = core.Options
	// OnlineApproxAlg exposes the paper's algorithm including Step-wise
	// execution and the dual Certificate.
	OnlineApproxAlg = core.OnlineApprox
	// Certificate is a certified lower bound on the offline optimum.
	Certificate = core.Certificate
)

// Experiment types.
type (
	// ExperimentParams scales a figure reproduction.
	ExperimentParams = experiments.Params
	// ExperimentResult is a reproduced figure as labeled rows.
	ExperimentResult = experiments.Result
)

// NewOnlineApprox returns the paper's regularization-based online
// algorithm (§III) for use with Execute. The zero options use ε₁ = ε₂ = 1.
func NewOnlineApprox(opts ApproxOptions) *OnlineApproxAlg {
	return core.NewOnlineApprox(nil, opts)
}

// NewOnlineApproxFor binds the algorithm to an instance for slot-by-slot
// execution (Step/Run) and certification (Certificate). The decision Step
// returns is valid until the next Step: copy it to keep it, or read
// Schedule, which holds every committed slot.
func NewOnlineApproxFor(in *Instance, opts ApproxOptions) *OnlineApproxAlg {
	return core.NewOnlineApprox(in, opts)
}

// NewOnlineGreedy returns the per-slot one-shot optimizer of §V-B.
func NewOnlineGreedy() Algorithm { return &baseline.Greedy{} }

// NewOfflineOpt returns the full-knowledge offline optimizer used to
// normalize empirical competitive ratios.
func NewOfflineOpt() Algorithm { return &baseline.Offline{} }

// NewPerfOpt returns the atomistic service-quality-only optimizer.
func NewPerfOpt() Algorithm { return &baseline.Atomistic{Kind: baseline.PerfOpt} }

// NewOperOpt returns the atomistic operation-cost-only optimizer.
func NewOperOpt() Algorithm { return &baseline.Atomistic{Kind: baseline.OperOpt} }

// NewStatOpt returns the atomistic total-static-cost optimizer.
func NewStatOpt() Algorithm { return &baseline.Atomistic{Kind: baseline.StatOpt} }

// NewStatic returns the never-adapting policy: the stat-opt allocation of
// the first slot held for the whole horizon.
func NewStatic() Algorithm { return &baseline.Static{} }

// NewLookahead returns the model-predictive baseline that assumes the
// next window slots are known, commits the first slot, and rolls forward
// (window ≤ 0 selects the default 3). Window 1 is online-greedy (under
// the lookahead's solver defaults); window T is offline-opt.
func NewLookahead(window int) Algorithm { return &baseline.Lookahead{Window: window} }

// NewProximal returns the quadratic-movement-penalty ablation of the
// paper's algorithm (smoothed-OCO style; sigma ≤ 0 selects the default 1).
func NewProximal(sigma float64) Algorithm { return &baseline.Proximal{Sigma: sigma} }

// Execute runs an algorithm on a validated instance, verifies that the
// produced schedule is feasible, and evaluates the true weighted cost.
func Execute(in *Instance, alg Algorithm) (*Run, error) {
	return sim.Execute(in, alg)
}

// ExactOffline solves the full-horizon problem exactly as an LP with the
// built-in simplex solver. Use only on small instances (T·I·J up to a few
// hundred variables); it exists as ground truth for tests and toys.
func ExactOffline(in *Instance) (Schedule, float64, error) {
	return baseline.ExactOffline(in)
}

// RomeScenario builds the §V-A real-world-style scenario: synthetic taxis
// in central Rome attaching to 15 metro-station edge clouds.
func RomeScenario(cfg ScenarioConfig) (*Instance, *Trace, error) {
	return scenario.Rome(cfg)
}

// RandomWalkScenario builds the §V-D synthetic scenario: users walk the
// metro graph with uniform stay-or-move steps.
func RandomWalkScenario(cfg ScenarioConfig) (*Instance, *Trace, error) {
	return scenario.RandomWalkRome(cfg)
}

// PingPongScenario builds the adversarial price-alternation family used
// to probe lower bounds on the competitive ratio (the future work of the
// paper's §IV Remark).
func PingPongScenario(cfg scenario.AdversarialConfig) (*Instance, error) {
	return scenario.PingPong(cfg)
}

// AdversarialConfig parameterizes PingPongScenario.
type AdversarialConfig = scenario.AdversarialConfig

// WriteInstance persists an instance as JSON for archival and replay.
func WriteInstance(w io.Writer, in *Instance) error { return model.WriteInstance(w, in) }

// ReadInstance decodes and validates a JSON instance.
func ReadInstance(r io.Reader) (*Instance, error) { return model.ReadInstance(r) }

// WriteSchedule persists a schedule as JSON.
func WriteSchedule(w io.Writer, s Schedule) error { return model.WriteSchedule(w, s) }

// ReadSchedule decodes a JSON schedule.
func ReadSchedule(r io.Reader) (Schedule, error) { return model.ReadSchedule(r) }

// ToyExampleA returns the Figure 1(a) instance (greedy too aggressive:
// 11.5 vs the optimal 9.6).
func ToyExampleA() *Instance { return model.ToyExampleA() }

// ToyExampleB returns the Figure 1(b) instance (greedy too conservative:
// 11.3 vs the optimal 9.5).
func ToyExampleB() *Instance { return model.ToyExampleB() }

// RatioBound returns Theorem 2's parameterized competitive ratio
// r = 1 + γ|I| for the given instance and ε parameters, with the paper's
// γ widened to cover workloads above every capacity (core.RatioBound).
func RatioBound(in *Instance, eps1, eps2 float64) float64 {
	return core.RatioBound(in, eps1, eps2)
}

// ReproduceFigure runs the reproduction harness for one of the paper's
// figures ("1".."5" or "fig1".."fig5") at the given scale.
func ReproduceFigure(name string, p ExperimentParams) (*ExperimentResult, error) {
	return experiments.ByName(name, p)
}
