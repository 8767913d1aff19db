package baseline

import (
	"fmt"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
)

// Greedy is the online one-shot optimizer of §V-B: in every slot it
// minimizes the true P0 cost of that slot — static cost plus the
// reconfiguration and bidirectional migration hinges measured against the
// previous slot's decision — with no regard for the future. Greedy is
// Lookahead{Window: 1}: the offline program over a one-slot window, its
// hinges smoothed by softplus with continuation.
type Greedy struct {
	// Solver overrides the per-slot ALM options (zero = defaults).
	Solver alm.Options
	// MuSchedule overrides the smoothing continuation schedule (nil =
	// smooth.Schedule(0.25, 1e-3, 0.1)).
	MuSchedule []float64
}

// Name identifies the algorithm in experiment output.
func (g *Greedy) Name() string { return "online-greedy" }

// Solve runs the greedy policy over the horizon.
func (g *Greedy) Solve(in *model.Instance) (model.Schedule, error) {
	return (&Lookahead{Window: 1, MuSchedule: g.MuSchedule,
		Solver: g.Solver.Or(alm.Options{MaxOuter: 50, InnerIters: 700, FeasTol: 1e-7, Penalty: 2}),
	}).Solve(in)
}

// Lookahead is a model-predictive baseline bridging online-greedy and
// offline-opt: at every slot it assumes the next Window slots of prices
// and locations are known (the "predicted future costs" setting of the
// related work the paper contrasts itself with, e.g. Wang et al. [15]),
// solves the windowed problem exactly like the offline program, commits
// only the first slot's allocation, and rolls forward.
//
// Window = 1 is online-greedy (Greedy runs it); Window = T is
// offline-opt. Intermediate values quantify how much of the paper's gap
// between the two a perfect k-step oracle closes — context for how strong
// the regularization algorithm is *without* any prediction at all.
type Lookahead struct {
	// Window is the number of future slots assumed known (default 3).
	Window int
	// Solver overrides the per-window ALM options (zero = defaults).
	Solver alm.Options
	// MuSchedule overrides the smoothing continuation (nil = default).
	MuSchedule []float64
}

// Name identifies the algorithm in experiment output.
func (l *Lookahead) Name() string { return fmt.Sprintf("lookahead-%d", l.window()) }

// window returns the window length, the default 3 filled in.
func (l *Lookahead) window() int {
	if l.Window <= 0 {
		return 3
	}
	return l.Window
}

// Solve runs the receding-horizon policy over the instance. Each window
// warm-starts its first slot at the decision it follows, every later slot
// at that slot's stat-opt transportation solution, and its multipliers at
// the previous window's, block for block.
func (l *Lookahead) Solve(in *model.Instance) (model.Schedule, error) {
	// One Offline across all slots: its per-shape cache means the
	// windowed program's constraint rows, objective buffers, and solver
	// workspace are built once per distinct window length (the full
	// window plus the shrinking tails at the end of the horizon) instead
	// of once per slot.
	off := &Offline{Solver: l.Solver, MuSchedule: l.MuSchedule}
	mus, sopts := off.settings()
	nIJ := in.I * in.J
	at := &Atomistic{Kind: StatOpt}
	prev := in.InitialAlloc()
	sched := make(model.Schedule, 0, in.T)
	served := make([]float64, in.J)
	var duals []float64
	for t := 0; t < in.T; t++ {
		n := min(l.window(), in.T-t)
		sub, err := in.Window(t, n, prev)
		if err != nil {
			return nil, fmt.Errorf("baseline: lookahead slot %d: %w", t, err)
		}
		st := off.state(sub)
		copy(st.warm, prev.X)
		for k := 1; k < n; k++ {
			x, err := solveSlotTransport(sub, at.slotCost(sub, k))
			if err != nil {
				return nil, fmt.Errorf("baseline: lookahead warm start slot %d: %w", t+k, err)
			}
			copy(st.warm[k*nIJ:], x.X)
		}
		if duals != nil {
			duals = duals[:n*(in.I+in.J)]
		}
		res, err := st.solve(mus, sopts, duals)
		if err != nil {
			return nil, fmt.Errorf("baseline: lookahead slot %d: %w", t, err)
		}
		x := model.Alloc{I: in.I, J: in.J, X: append([]float64(nil), res.X[:nIJ]...)}
		in.Repair(x, served)
		sched = append(sched, x)
		prev = x
		duals = res.Duals
	}
	return sched, nil
}
