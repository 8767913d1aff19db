package baseline

import (
	"fmt"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
	"edgealloc/internal/solver/fista"
	"edgealloc/internal/solver/smooth"
)

// Offline minimizes P0 over the whole horizon with full knowledge of the
// future — the impractical baseline used to normalize every empirical
// competitive ratio (the paper's offline-opt, solved there by an LP
// solver). The hinge costs are smoothed by softplus with continuation and
// the single program over all T·I·J variables is solved by the augmented
// Lagrangian; on tiny instances ExactOffline (exact.go) gives the LP
// optimum for cross-validation.
//
// An Offline caches its constraint rows, objective buffers, and solver
// workspace per instance shape and reuses them across Solve calls —
// the receding-horizon Lookahead solves one same-shaped window per slot,
// which previously rebuilt every row slice each time. Instance-dependent
// values (right-hand sides, prices, the initial allocation) are refreshed
// on every call. An Offline must not be shared between goroutines.
type Offline struct {
	// Solver overrides the per-stage ALM options (zero = defaults).
	Solver alm.Options
	// MuSchedule overrides the smoothing continuation (nil =
	// smooth.Schedule(0.25, 1e-3, 0.1)).
	MuSchedule []float64

	states map[shapeKey]*offlineState
}

// shapeKey identifies a cached solver state by problem dimensions.
type shapeKey struct{ i, j, t int }

// offlineState is the reusable per-shape machinery of one offline solve.
type offlineState struct {
	obj    *offlineObjective
	groups *alm.Groups
	warm   []float64
	ws     alm.Workspace
}

// Name identifies the algorithm in experiment output.
func (o *Offline) Name() string { return "offline-opt" }

// state returns the cached machinery for in's shape, building it on
// first use and refreshing every instance-dependent value.
func (o *Offline) state(in *model.Instance) *offlineState {
	key := shapeKey{in.I, in.J, in.T}
	st := o.states[key]
	if st == nil {
		nIJ := in.I * in.J
		st = &offlineState{
			obj: &offlineObjective{
				nIJ:  nIJ,
				coef: make([]float64, in.T*nIJ),
				tot:  make([]float64, in.I*(in.T+1)),
			},
			groups: slotGroups(in, in.T),
			warm:   make([]float64, in.T*nIJ),
		}
		if o.states == nil {
			o.states = make(map[shapeKey]*offlineState)
		}
		o.states[key] = st
	}
	st.obj.in = in
	st.obj.init = in.InitialAlloc()
	for t := 0; t < in.T; t++ {
		in.StaticCoeffInto(t, st.obj.coef[t*st.obj.nIJ:(t+1)*st.obj.nIJ])
	}
	refreshSlotGroupsRHS(st.groups, in)
	return st
}

// settings returns the smoothing continuation and per-stage ALM options,
// defaults filled in.
func (o *Offline) settings() ([]float64, alm.Options) {
	mus := o.MuSchedule
	if mus == nil {
		mus = smooth.Schedule(0.25, 1e-3, 0.1)
	}
	return mus, o.Solver.Or(alm.Options{MaxOuter: 60, InnerIters: 2500, FeasTol: 1e-7, Penalty: 2})
}

// Solve minimizes the full-horizon smoothed P0 objective.
func (o *Offline) Solve(in *model.Instance) (model.Schedule, error) {
	nIJ := in.I * in.J
	st := o.state(in)

	// Warm start: every slot at the stat-opt transportation solution,
	// which is feasible and usually close in shape.
	at := &Atomistic{Kind: StatOpt}
	for t := 0; t < in.T; t++ {
		x, err := solveSlotTransport(in, at.slotCost(in, t))
		if err != nil {
			return nil, fmt.Errorf("baseline: offline warm start slot %d: %w", t, err)
		}
		copy(st.warm[t*nIJ:(t+1)*nIJ], x.X)
	}
	mus, sopts := o.settings()
	res, err := st.solve(mus, sopts, nil)
	if err != nil {
		return nil, fmt.Errorf("baseline: offline: %w", err)
	}

	sched := make(model.Schedule, in.T)
	served := make([]float64, in.J)
	for t := 0; t < in.T; t++ {
		x := model.Alloc{I: in.I, J: in.J,
			X: append([]float64(nil), res.X[t*nIJ:(t+1)*nIJ]...)}
		in.Repair(x, served)
		sched[t] = x
	}
	return sched, nil
}

// solve minimizes the smoothed objective through the continuation mus,
// starting from st.warm and the multipliers duals (nil = zero). Every
// stage shares st's workspace and warm-starts from the previous one's
// (aliased) iterate and duals, so the result's X and Duals are valid
// until st solves again.
func (st *offlineState) solve(mus []float64, sopts alm.Options, duals []float64) (*alm.Result, error) {
	warm := st.warm
	var res *alm.Result
	for _, mu := range mus {
		st.obj.mu = mu
		opts := sopts
		opts.Workspace = &st.ws
		opts.WarmX = warm
		opts.WarmDuals = duals
		var err error
		res, err = alm.Solve(&alm.Problem{
			Obj:    st.obj,
			N:      len(st.warm),
			Groups: st.groups,
		}, opts)
		if err != nil {
			return nil, err
		}
		warm = res.X
		duals = res.Duals
	}
	return res, nil
}

// slotGroups builds the structured rows shared by the proximal ablation
// and the offline program over `slots` consecutive slot-major I×J
// blocks: the full CSR grid of slots·I cloud rows over slots·J users,
// and per slot its demand rows Σ_i x_ij ≥ λ_j then its capacity rows
// Σ_j x_ij ≤ C_i (as −Σ_j x_ij ≥ −C_i for the GE-only ALM interface).
func slotGroups(in *model.Instance, slots int) *alm.Groups {
	nI, nJ := slots*in.I, slots*in.J
	g := &alm.Groups{I: nI, J: nJ, Rows: make([]alm.GroupRow, 0, nJ+nI),
		RowPtr: make([]int, nI+1), Cols: make([]int, nI*in.J)}
	for r := 0; r < nI; r++ {
		g.RowPtr[r+1] = (r + 1) * in.J
		for j := 0; j < in.J; j++ {
			g.Cols[r*in.J+j] = r/in.I*in.J + j
		}
	}
	for b := 0; b < slots; b++ {
		for j := 0; j < in.J; j++ {
			g.Rows = append(g.Rows, alm.GroupRow{Kind: alm.GroupUserSum, Index: b*in.J + j})
		}
		for i := 0; i < in.I; i++ {
			g.Rows = append(g.Rows, alm.GroupRow{Kind: alm.GroupCloudSumNeg, Index: b*in.I + i})
		}
	}
	refreshSlotGroupsRHS(g, in)
	return g
}

// refreshSlotGroupsRHS rewrites the right-hand sides of rows built by
// slotGroups for the given instance (same shape assumed).
func refreshSlotGroupsRHS(g *alm.Groups, in *model.Instance) {
	for k, r := range g.Rows {
		if r.Kind == alm.GroupUserSum {
			g.Rows[k].RHS = in.Workload[r.Index%in.J]
		} else {
			g.Rows[k].RHS = -in.Capacity[r.Index%in.I]
		}
	}
}

// offlineObjective is the smoothed P0 objective over the whole horizon.
// Variables are laid out slot-major: x[t*I*J + i*J + j].
type offlineObjective struct {
	in   *model.Instance
	nIJ  int
	init model.Alloc
	coef []float64 // static coefficients, laid out like x
	mu   float64

	tot []float64 // scratch: (T+1)×I cloud totals, slot 0 = init
}

var _ fista.Objective = (*offlineObjective)(nil)

// Eval implements fista.Objective.
func (o *offlineObjective) Eval(x, grad []float64) float64 {
	in := o.in
	nI, nJ := in.I, in.J
	// Cross-slot terms accumulate into grad, so it must start clean.
	clear(grad)

	// Cloud totals for init and every slot.
	o.init.CloudTotalsInto(o.tot[:nI])
	for t := 0; t < in.T; t++ {
		for i := 0; i < nI; i++ {
			s := 0.0
			row := x[t*o.nIJ+i*nJ : t*o.nIJ+(i+1)*nJ]
			for _, v := range row {
				s += v
			}
			o.tot[(t+1)*nI+i] = s
		}
	}

	f := 0.0
	for t := 0; t < in.T; t++ {
		// Slot t's block of x and the decision it moves from: init at
		// t = 0, the previous block after.
		off := t * o.nIJ
		prev := o.init.X
		if t > 0 {
			prev = x[off-o.nIJ : off]
		}
		for i := 0; i < nI; i++ {
			// Reconfiguration hinge on the cloud-total change.
			d := o.tot[(t+1)*nI+i] - o.tot[t*nI+i]
			rc := in.WRc * in.ReconfPrice[i]
			f += rc * smooth.Softplus(d, o.mu)
			rcGrad := rc * smooth.SoftplusGrad(d, o.mu)
			bOut := in.WMg * in.MigOutPrice[i]
			bIn := in.WMg * in.MigInPrice[i]
			for k := i * nJ; k < (i+1)*nJ; k++ {
				v := x[off+k]
				f += o.coef[off+k] * v
				dv := v - prev[k]
				f += bOut*smooth.Softplus(-dv, o.mu) + bIn*smooth.Softplus(dv, o.mu)
				if grad != nil {
					gOut := bOut * smooth.SoftplusGrad(-dv, o.mu)
					gIn := bIn * smooth.SoftplusGrad(dv, o.mu)
					grad[off+k] += o.coef[off+k] + rcGrad + gIn - gOut
					if t > 0 {
						grad[off+k-o.nIJ] += gOut - gIn - rcGrad
					}
				}
			}
		}
	}
	return f
}
