// Package baseline implements the comparison algorithms of the paper's
// evaluation (§V-B):
//
//   - the atomistic group — perf-opt, oper-opt, stat-opt — which minimize
//     only (parts of) the static cost independently in each slot;
//   - static, which computes one allocation up front and never adapts
//     (the "static approaches typically employed in edge clouds" of §I);
//   - online-greedy, which minimizes the true P0 slot cost given the
//     previous slot's outcome but looks no further ahead;
//   - offline-opt, which minimizes P0 with the whole future known — the
//     impractical baseline every empirical competitive ratio is
//     normalized by.
//
// Both, and the lookahead between them, are one program: offline-opt's
// smoothed P0 over a window of slots, minimized by one continuation loop
// (offline.go). Lookahead rolls a k-slot window over the horizon, and
// online-greedy is its one-slot window.
package baseline

import (
	"fmt"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/transport"
)

// AtomisticKind selects which part of the static cost an atomistic
// algorithm minimizes.
type AtomisticKind int

// The three atomistic objectives of §V-B.
const (
	// PerfOpt minimizes only the service-quality cost each slot.
	PerfOpt AtomisticKind = iota + 1
	// OperOpt minimizes only the operation cost each slot.
	OperOpt
	// StatOpt minimizes the total static cost each slot.
	StatOpt
)

func (k AtomisticKind) String() string {
	switch k {
	case PerfOpt:
		return "perf-opt"
	case OperOpt:
		return "oper-opt"
	case StatOpt:
		return "stat-opt"
	default:
		return fmt.Sprintf("AtomisticKind(%d)", int(k))
	}
}

// Atomistic is a per-slot static-cost minimizer. Each slot reduces to a
// transportation problem solved exactly (internal/solver/transport).
type Atomistic struct {
	Kind AtomisticKind
}

// Name identifies the algorithm in experiment output.
func (a *Atomistic) Name() string { return a.Kind.String() }

// Solve computes the per-slot optimal allocations for its static objective.
func (a *Atomistic) Solve(in *model.Instance) (model.Schedule, error) {
	sched := make(model.Schedule, in.T)
	for t := 0; t < in.T; t++ {
		x, err := solveSlotTransport(in, a.slotCost(in, t))
		if err != nil {
			return nil, fmt.Errorf("baseline: %s slot %d: %w", a.Name(), t, err)
		}
		sched[t] = x
	}
	return sched, nil
}

// slotCost builds the I×J unit-cost matrix of the slot's objective.
func (a *Atomistic) slotCost(in *model.Instance, t int) [][]float64 {
	cost := make([][]float64, in.I)
	for i := range cost {
		cost[i] = make([]float64, in.J)
		for j := range cost[i] {
			switch a.Kind {
			case PerfOpt:
				cost[i][j] = in.WSq * in.InterDelay[in.Attach[t][j]][i] / in.Workload[j]
			case OperOpt:
				cost[i][j] = in.WOp * in.OpPrice[t][i]
			default: // StatOpt
				cost[i][j] = in.WOp*in.OpPrice[t][i] +
					in.WSq*in.InterDelay[in.Attach[t][j]][i]/in.Workload[j]
			}
		}
	}
	return cost
}

// Static computes the stat-opt allocation for the first slot and keeps it
// unchanged for the whole horizon.
type Static struct{}

// Name identifies the algorithm in experiment output.
func (s *Static) Name() string { return "static" }

// Solve implements the never-adapt policy.
func (s *Static) Solve(in *model.Instance) (model.Schedule, error) {
	at := &Atomistic{Kind: StatOpt}
	x, err := solveSlotTransport(in, at.slotCost(in, 0))
	if err != nil {
		return nil, fmt.Errorf("baseline: static: %w", err)
	}
	sched := make(model.Schedule, in.T)
	for t := range sched {
		sched[t] = x.Clone()
	}
	return sched, nil
}

// solveSlotTransport runs the exact transportation solver for one slot.
func solveSlotTransport(in *model.Instance, cost [][]float64) (model.Alloc, error) {
	sol, err := transport.Solve(&transport.Problem{
		Cost:   cost,
		Supply: in.Capacity,
		Demand: in.Workload,
	})
	if err != nil {
		return model.Alloc{}, err
	}
	x := model.NewAlloc(in.I, in.J)
	for i := 0; i < in.I; i++ {
		copy(x.X[i*in.J:(i+1)*in.J], sol.Flow[i])
	}
	return x, nil
}
