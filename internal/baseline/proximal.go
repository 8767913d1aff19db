package baseline

import (
	"fmt"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
	"edgealloc/internal/solver/fista"
)

// Proximal is an ablation of the paper's central design choice: it keeps
// the per-slot structure of the online algorithm but replaces the
// relative-entropy regularizers with quadratic movement penalties,
//
//	Σ_i (w_rc·c_i/2σ)(X_i − X'_i)² + Σ_ij (w_mg·b_i/2σ)(x_ij − x'_ij)²,
//
// the "smoothed online convex optimization" style of the related work the
// paper builds on (Jiao et al. [8], Lin et al. [7]). Entropy regularizers
// admit the multiplicative-update analysis behind Theorem 2; quadratic
// ones do not, and the ablation measures what that buys empirically.
//
// A Proximal caches its constraint rows, objective buffers, and solver
// workspace across Solve calls (rebinding the per-instance values each
// time), so it must not be shared between goroutines.
type Proximal struct {
	// Sigma is the movement scale σ (default 1); larger values penalize
	// movement less.
	Sigma float64
	// Solver overrides the per-slot ALM options (zero = defaults).
	Solver alm.Options

	// Cached per-shape state, lazily (re)built when the instance shape
	// changes and refreshed (RHS, prices) on every call.
	obj    *proximalObjective
	groups *alm.Groups
	lower  []float64
	served []float64
	ws     alm.Workspace
}

// Name identifies the algorithm in experiment output.
func (p *Proximal) Name() string { return "online-proximal" }

// prepare sizes (or resizes) the cached state for in's shape and
// refreshes every instance-dependent value: constraint right-hand sides
// and the quadratic movement factors.
func (p *Proximal) prepare(in *model.Instance, sigma float64) {
	if p.obj == nil || p.obj.nI != in.I || p.obj.nJ != in.J {
		p.obj = &proximalObjective{
			nI:      in.I,
			nJ:      in.J,
			coef:    make([]float64, in.I*in.J),
			prevTot: make([]float64, in.I),
			rcFac:   make([]float64, in.I),
			mgFac:   make([]float64, in.I),
			tot:     make([]float64, in.I),
		}
		p.groups = slotGroups(in, 1)
		p.lower = make([]float64, in.I*in.J)
		p.served = make([]float64, in.J)
	}
	// Demand and explicit capacity rows (the complement rows exist for
	// the entropy analysis; the proximal ablation has no such analysis).
	// Refresh RHS in place: a same-shaped instance may still carry
	// different workloads and capacities.
	refreshSlotGroupsRHS(p.groups, in)
	for i := 0; i < in.I; i++ {
		p.obj.rcFac[i] = in.WRc * in.ReconfPrice[i] / sigma
		p.obj.mgFac[i] = in.WMg * (in.MigOutPrice[i] + in.MigInPrice[i]) / sigma
	}
}

// Solve runs the proximal policy over the instance.
func (p *Proximal) Solve(in *model.Instance) (model.Schedule, error) {
	sigma := p.Sigma
	if sigma <= 0 {
		sigma = 1
	}
	sopts := p.Solver.Or(alm.Options{MaxOuter: 50, InnerIters: 700, FeasTol: 1e-7, Penalty: 2})

	p.prepare(in, sigma)
	obj := p.obj

	prev := in.InitialAlloc()
	sched := make(model.Schedule, 0, in.T)
	var warmDuals []float64
	for t := 0; t < in.T; t++ {
		in.StaticCoeffInto(t, obj.coef)
		obj.prev = prev.X
		prev.CloudTotalsInto(obj.prevTot)
		opts := sopts
		opts.Workspace = &p.ws
		opts.WarmX = prev.X
		opts.WarmDuals = warmDuals
		res, err := alm.Solve(&alm.Problem{
			Obj: obj, N: in.I * in.J,
			Lower:  p.lower,
			Groups: p.groups,
		}, opts)
		if err != nil {
			return nil, fmt.Errorf("baseline: proximal slot %d: %w", t, err)
		}
		// res.X aliases the workspace; copy before retaining.
		x := model.Alloc{I: in.I, J: in.J, X: append([]float64(nil), res.X...)}
		in.Repair(x, p.served)
		sched = append(sched, x)
		prev = x
		warmDuals = res.Duals
	}
	return sched, nil
}

// proximalObjective is the quadratic-movement slot objective.
type proximalObjective struct {
	nI, nJ  int
	coef    []float64
	prev    []float64
	prevTot []float64
	rcFac   []float64 // w_rc·c_i/σ
	mgFac   []float64 // w_mg·b_i/σ
	tot     []float64 // scratch
}

var _ fista.Objective = (*proximalObjective)(nil)

// Eval implements fista.Objective.
func (o *proximalObjective) Eval(x, grad []float64) float64 {
	f := 0.0
	for i := 0; i < o.nI; i++ {
		s := 0.0
		row := x[i*o.nJ : (i+1)*o.nJ]
		for _, v := range row {
			s += v
		}
		o.tot[i] = s
	}
	for i := 0; i < o.nI; i++ {
		d := o.tot[i] - o.prevTot[i]
		f += o.rcFac[i] / 2 * d * d
		rcGrad := o.rcFac[i] * d
		base := i * o.nJ
		for j := 0; j < o.nJ; j++ {
			k := base + j
			v := x[k]
			dv := v - o.prev[k]
			f += o.coef[k]*v + o.mgFac[i]/2*dv*dv
			if grad != nil {
				grad[k] = o.coef[k] + rcGrad + o.mgFac[i]*dv
			}
		}
	}
	return f
}
