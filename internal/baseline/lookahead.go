package baseline

import (
	"fmt"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
)

// Lookahead is a model-predictive baseline bridging online-greedy and
// offline-opt: at every slot it assumes the next Window slots of prices
// and locations are known (the "predicted future costs" setting of the
// related work the paper contrasts itself with, e.g. Wang et al. [15]),
// solves the windowed problem exactly like the offline program, commits
// only the first slot's allocation, and rolls forward.
//
// Window = 1 coincides with online-greedy; Window = T is offline-opt.
// Intermediate values quantify how much of the paper's gap between the
// two a perfect k-step oracle closes — context for how strong the
// regularization algorithm is *without* any prediction at all.
type Lookahead struct {
	// Window is the number of future slots assumed known (default 3).
	Window int
	// Solver overrides the per-window ALM options (zero = defaults).
	Solver alm.Options
	// MuSchedule overrides the smoothing continuation (nil = default).
	MuSchedule []float64
}

// Name identifies the algorithm in experiment output.
func (l *Lookahead) Name() string {
	w := l.Window
	if w <= 0 {
		w = 3
	}
	return fmt.Sprintf("lookahead-%d", w)
}

// Solve runs the receding-horizon policy over the instance.
func (l *Lookahead) Solve(in *model.Instance) (model.Schedule, error) {
	window := l.Window
	if window <= 0 {
		window = 3
	}
	// One Offline across all slots: its per-shape cache means the
	// windowed program's constraint rows, objective buffers, and solver
	// workspace are built once per distinct window length (the full
	// window plus the shrinking tails at the end of the horizon) instead
	// of once per slot.
	off := &Offline{Solver: l.Solver, MuSchedule: l.MuSchedule}
	prev := in.InitialAlloc()
	sched := make(model.Schedule, 0, in.T)
	served := make([]float64, in.J)
	for t := 0; t < in.T; t++ {
		n := window
		if t+n > in.T {
			n = in.T - t
		}
		sub, err := in.Window(t, n, prev)
		if err != nil {
			return nil, fmt.Errorf("baseline: lookahead slot %d: %w", t, err)
		}
		plan, err := off.Solve(sub)
		if err != nil {
			return nil, fmt.Errorf("baseline: lookahead slot %d: %w", t, err)
		}
		x := plan[0].Clone()
		in.Repair(x, served)
		sched = append(sched, x)
		prev = x
	}
	return sched, nil
}
