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
	obj     *offlineObjective
	groups  *alm.Groups
	lower   []float64
	warm    []float64
	coefBuf []float64 // backing array for obj.coefs
	ws      alm.Workspace
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
				nIJ:   nIJ,
				coefs: make([][]float64, in.T),
				tot:   make([]float64, in.I*(in.T+1)),
			},
			groups:  slotGroups(in, in.T),
			lower:   make([]float64, in.T*nIJ),
			warm:    make([]float64, in.T*nIJ),
			coefBuf: make([]float64, in.T*nIJ),
		}
		for t := 0; t < in.T; t++ {
			st.obj.coefs[t] = st.coefBuf[t*nIJ : (t+1)*nIJ]
		}
		if o.states == nil {
			o.states = make(map[shapeKey]*offlineState)
		}
		o.states[key] = st
	}
	st.obj.in = in
	st.obj.init = in.InitialAlloc()
	for t := 0; t < in.T; t++ {
		in.StaticCoeffInto(t, st.obj.coefs[t])
	}
	refreshSlotGroupsRHS(st.groups, in)
	return st
}

// Solve minimizes the full-horizon smoothed P0 objective.
func (o *Offline) Solve(in *model.Instance) (model.Schedule, error) {
	mus := o.MuSchedule
	if mus == nil {
		mus = smooth.Schedule(0.25, 1e-3, 0.1)
	}
	sopts := o.Solver.Or(alm.Options{MaxOuter: 60, InnerIters: 2500, FeasTol: 1e-7, Penalty: 2})

	nIJ := in.I * in.J
	st := o.state(in)

	// Warm start: every slot at the stat-opt transportation solution,
	// which is feasible and usually close in shape.
	warm := st.warm
	at := &Atomistic{Kind: StatOpt}
	for t := 0; t < in.T; t++ {
		x, err := solveSlotTransport(in, at.slotCost(in, t))
		if err != nil {
			return nil, fmt.Errorf("baseline: offline warm start slot %d: %w", t, err)
		}
		copy(warm[t*nIJ:(t+1)*nIJ], x.X)
	}

	// One workspace shared across the continuation stages: each stage
	// warm-starts from the previous one's (aliased) iterate and duals.
	var res *alm.Result
	var warmDuals []float64
	for _, mu := range mus {
		st.obj.mu = mu
		opts := sopts
		opts.Workspace = &st.ws
		opts.WarmX = warm
		opts.WarmDuals = warmDuals
		var err error
		res, err = alm.Solve(&alm.Problem{
			Obj:    st.obj,
			N:      in.T * nIJ,
			Lower:  st.lower,
			Groups: st.groups,
		}, opts)
		if err != nil {
			return nil, fmt.Errorf("baseline: offline: %w", err)
		}
		warm = res.X
		warmDuals = res.Duals
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

// offlineObjective is the smoothed P0 objective over the whole horizon.
// Variables are laid out slot-major: x[t*I*J + i*J + j].
type offlineObjective struct {
	in    *model.Instance
	nIJ   int
	init  model.Alloc
	coefs [][]float64
	mu    float64

	tot []float64 // scratch: (T+1)×I cloud totals, slot 0 = init
}

var _ fista.Objective = (*offlineObjective)(nil)

// Eval implements fista.Objective.
func (o *offlineObjective) Eval(x, grad []float64) float64 {
	in := o.in
	nI, nJ := in.I, in.J
	if grad != nil {
		// Cross-slot terms accumulate into grad, so it must start clean.
		for k := range grad {
			grad[k] = 0
		}
	}

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
		coef := o.coefs[t]
		for i := 0; i < nI; i++ {
			// Reconfiguration hinge on the cloud-total change.
			d := o.tot[(t+1)*nI+i] - o.tot[t*nI+i]
			rc := in.WRc * in.ReconfPrice[i]
			f += rc * smooth.Softplus(d, o.mu)
			rcGrad := rc * smooth.SoftplusGrad(d, o.mu)
			bOut := in.WMg * in.MigOutPrice[i]
			bIn := in.WMg * in.MigInPrice[i]
			for j := 0; j < nJ; j++ {
				k := t*o.nIJ + i*nJ + j
				v := x[k]
				f += coef[i*nJ+j] * v
				var prev float64
				if t == 0 {
					prev = o.init.At(i, j)
				} else {
					prev = x[k-o.nIJ]
				}
				dv := v - prev
				f += bOut*smooth.Softplus(-dv, o.mu) + bIn*smooth.Softplus(dv, o.mu)
				if grad != nil {
					gOut := bOut * smooth.SoftplusGrad(-dv, o.mu)
					gIn := bIn * smooth.SoftplusGrad(dv, o.mu)
					grad[k] += coef[i*nJ+j] + rcGrad + gIn - gOut
					if t > 0 {
						grad[k-o.nIJ] += gOut - gIn - rcGrad
					}
				}
			}
		}
	}
	return f
}
