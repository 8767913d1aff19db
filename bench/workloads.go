package main

import (
	"math/rand"
	"time"

	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/solver/alm"
)

// A workload is a fixed number of independent episodes: each episode is
// one generated instance advanced slot by slot from its pre-horizon state,
// the first warm slots off the clock and the next timed slots on it. All
// statistics pool the timed slots of every episode. Several short
// episodes instead of one long one because the solver's per-slot work is
// chaotic in its input — a relabelling of the users alone moves the
// iteration count by 20-40%, and long flagship horizons drift into a
// coordination regime that triples it on some seeds — so a pooled median
// over independent draws is the only figure that repeats across seeds.
type workload struct {
	name, why string
	// serve runs the episodes as streaming sessions of an in-process
	// serve.Server behind a loopback HTTP listener, one open-loop slot per
	// session every period; otherwise they are stepped through
	// core.OnlineApprox one after the other.
	serve  bool
	period time.Duration

	episodes, warm, timed int
	// gen generates one episode of T slots from its own seed; smoke
	// shrinks the instance for the self-test.
	gen  func(T int, seed int64, smoke bool) (*model.Instance, error)
	opts core.Options
	// sloMs is the fixed latency limit of in_slo_frac.
	sloMs float64
}

// horizon is the slot count of one episode.
func (w *workload) horizon(smoke bool) int {
	if smoke {
		return w.warm + smokeTimed
	}
	return w.warm + w.timed
}

// smokeTimed is the timed slot count per episode of the self-test's
// shrunken workloads.
const smokeTimed = 4

// solverWorkers is set on every solver and server: the host has two
// vCPUs and every child runs with GOMAXPROCS=2.
const solverWorkers = 2

// The bounded budgets below are the benchmark's own copy of the tiers
// internal/perf/scale.go and churn.go measure, so editing that package
// cannot change a workload.

// shardBudget is the best full-re-solve configuration at the flagship
// size: certified candidate sets (k=4, pricing tolerance matched to the
// bounded duals), four user shards under the sharing-ADMM coordinator with
// a 3x60 per-block budget, and the batch log kernels.
func shardBudget() core.Options {
	return core.Options{
		Solver: alm.Options{
			MaxOuter: 3, InnerIters: 60,
			FeasTol: 1e-5, DualTol: 1e-2, ObjTol: 1e-8, Penalty: 2,
			Workers: solverWorkers,
		},
		Candidates: 4, CandidateTol: 1,
		Shards: 4, ShardRho: 16, ShardMaxIters: 12,
		ShardPrimalTol: 1e-4, ShardDualTol: 5e-2,
		FastMath: true,
	}
}

// churnBudget is the incremental tier over the same candidate sets. It
// departs from internal/perf's churn budget (4x100 at FeasTol 1e-4) in
// the capacity bar and the outer cap: at 1e-4 the frozen users' carried
// flow drifts past the oracle's 1e-4 capacity tolerance after ~95 slots
// of 1% churn and every later slot burns the whole budget, and at 1e-5
// the certificate's dual residual still crosses its tolerance on two
// seeds in three. 12x100 at the solver's default 1e-7 holds capacity to
// 2e-7 relative over 200 slots on every seed tried.
func churnBudget() core.Options {
	return core.Options{
		Solver: alm.Options{
			MaxOuter: 12, InnerIters: 100,
			FeasTol: 1e-7, DualTol: 5e-2, ObjTol: 1e-2, Penalty: 2,
			Workers: solverWorkers,
		},
		Candidates: 4, CandidateTol: 1,
		Incremental: true, IncrementalTol: 1,
	}
}

// subSeed derives episode k's generator seed.
func subSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// episode generates episode k of the seed.
func (w *workload) episode(seed int64, k int, smoke bool) (*model.Instance, error) {
	return w.gen(w.horizon(smoke), subSeed(seed, k), smoke)
}

// churnGen is churnInstance at one flagship-geometry size.
func churnGen(I, J int, churn float64) func(int, int64, bool) (*model.Instance, error) {
	return func(T int, seed int64, smoke bool) (*model.Instance, error) {
		if smoke {
			return churnInstance(6, 40, T, churn, seed)
		}
		return churnInstance(I, J, T, churn, seed)
	}
}

// romeGen replays a window of the fixed Rome day; the seed draws its
// start slot.
func romeGen(T int, seed int64, smoke bool) (*model.Instance, error) {
	users := 60
	if smoke {
		users = 8
	}
	day := romeDays[users]
	if day == nil {
		var err error
		day, _, err = scenario.Rome(scenario.Config{Users: users, Horizon: romeDaySlots, Seed: romeDaySeed})
		if err != nil {
			return nil, err
		}
		romeDays[users] = day
	}
	t0 := rand.New(rand.NewSource(seed)).Intn(romeDaySlots - T)
	return window(day, t0, T), nil
}

// romeDays caches the generated day per population size: a pass replays
// several windows of it.
var romeDays = map[int]*model.Instance{}

// workloads is the benchmark. Sizes are the largest that let four passes
// of every workload, the traced runs and two builds fit the driver's cap;
// CALIBRATION.md has the timings.
var workloads = []*workload{
	{
		name: "rome_exact",
		why: "paper's Rome taxi setting (I=15, 60 users), default options: unpruned exact path, cold from zero; " +
			"ALM/FISTA and p2Objective do the work, the other tiers and serve none. 3x(1+19) slots, closed loop.",
		episodes: 3, warm: 1, timed: 19, gen: romeGen,
		opts:  core.Options{Solver: alm.Options{Workers: solverWorkers}},
		sloMs: 1000,
	},
	{
		name: "flagship_full",
		why: "I=50, J=5000, 30% churn with price drift, full re-solve per slot (Candidates=4, Shards=4, FastMath): " +
			"shard coordinator, block solves and batch log kernels dominate. 3x(3+12) slots, closed loop.",
		episodes: 3, warm: 3, timed: 12, gen: churnGen(50, 5000, 0.30),
		opts:  shardBudget(),
		sloMs: 500,
	},
	{
		name: "flagship_lowchurn",
		why: "same geometry at 1% churn on Candidates=4 + Incremental: ~99% of users frozen, so delta detection and " +
			"KKT gate sweeps dominate and the solver does little. 1x(3+120) slots, closed loop.",
		episodes: 1, warm: 3, timed: 120, gen: churnGen(50, 5000, 0.01),
		opts:  churnBudget(),
		sloMs: 100,
	},
	{
		name: "serve_stream",
		why: "2 streaming sessions (I=25, J=1000, 5% churn) on a loopback serve.Server, per-slot autosnapshot, " +
			"open loop, 1 slot/160 ms each, timed from due time: the serving layer does most of the work. 2x(3+25)",
		serve: true, period: 160 * time.Millisecond,
		episodes: 2, warm: 3, timed: 25, gen: churnGen(25, 1000, 0.05),
		opts:  churnBudget(),
		sloMs: 250,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
