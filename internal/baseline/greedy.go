package baseline

import (
	"fmt"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
	"edgealloc/internal/solver/fista"
	"edgealloc/internal/solver/smooth"
)

// Greedy is the online one-shot optimizer of §V-B: in every slot it
// minimizes the true P0 cost of that slot — static cost plus the
// reconfiguration and bidirectional migration hinges measured against the
// previous slot's decision — with no regard for the future. The hinges
// are smoothed by softplus with continuation (internal/solver/smooth) so
// the slot problem is solvable by the first-order machinery at any scale.
type Greedy struct {
	// Solver overrides the per-stage ALM options (zero = defaults).
	Solver alm.Options
	// MuSchedule overrides the smoothing continuation schedule (nil =
	// smooth.Schedule(0.25, 1e-3, 0.1)).
	MuSchedule []float64
}

// Name identifies the algorithm in experiment output.
func (g *Greedy) Name() string { return "online-greedy" }

// Solve runs the greedy policy over the horizon.
func (g *Greedy) Solve(in *model.Instance) (model.Schedule, error) {
	mus := g.MuSchedule
	if mus == nil {
		mus = smooth.Schedule(0.25, 1e-3, 0.1)
	}
	sopts := g.Solver.Or(alm.Options{MaxOuter: 50, InnerIters: 700, FeasTol: 1e-7, Penalty: 2})

	// The price factors are slot-independent; build the objective once and
	// rebind per slot, sharing one solver workspace across the horizon so
	// repeated slots allocate nothing in the hot path.
	cons := slotGroups(in, 1)
	obj := &greedySlotObjective{
		nI:      in.I,
		nJ:      in.J,
		coef:    make([]float64, in.I*in.J),
		rc:      make([]float64, in.I),
		bOut:    make([]float64, in.I),
		bIn:     make([]float64, in.I),
		tot:     make([]float64, in.I),
		prevTot: make([]float64, in.I),
	}
	for i := 0; i < in.I; i++ {
		obj.rc[i] = in.WRc * in.ReconfPrice[i]
		obj.bOut[i] = in.WMg * in.MigOutPrice[i]
		obj.bIn[i] = in.WMg * in.MigInPrice[i]
	}
	served := make([]float64, in.J)
	var ws alm.Workspace

	prev := in.InitialAlloc()
	sched := make(model.Schedule, 0, in.T)
	var warmX, warmDuals []float64
	for t := 0; t < in.T; t++ {
		in.StaticCoeffInto(t, obj.coef)
		obj.prev = prev.X
		prev.CloudTotalsInto(obj.prevTot)

		if warmX == nil {
			warmX = append([]float64(nil), prev.X...)
		}
		var res *alm.Result
		for _, mu := range mus {
			obj.mu = mu
			opts := sopts
			opts.Workspace = &ws
			opts.WarmX = warmX
			opts.WarmDuals = warmDuals
			var err error
			res, err = alm.Solve(&alm.Problem{
				Obj:    obj,
				N:      in.I * in.J,
				Groups: cons,
			}, opts)
			if err != nil {
				return nil, fmt.Errorf("baseline: greedy slot %d: %w", t, err)
			}
			warmX = res.X
			warmDuals = res.Duals
		}
		x := model.Alloc{I: in.I, J: in.J, X: append([]float64(nil), res.X...)}
		in.Repair(x, served)
		sched = append(sched, x)
		prev = x
		warmX = append(warmX[:0], x.X...)
	}
	return sched, nil
}

// slotGroups builds the structured rows shared by greedy, the proximal
// ablation, and the offline program over `slots` consecutive slot-major
// I×J blocks: the full CSR grid of slots·I cloud rows over slots·J users,
// and per slot its demand rows Σ_i x_ij ≥ λ_j then its capacity rows
// Σ_j x_ij ≤ C_i (as −Σ_j x_ij ≥ −C_i for the GE-only ALM interface),
// matching slotConstraints.
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

// slotConstraints is the generic sparse-row reference form of one slot
// block of slotGroups, kept for the structured-vs-dense comparisons.
func slotConstraints(in *model.Instance) []alm.Constraint {
	cons := make([]alm.Constraint, 0, in.J+in.I)
	for j := 0; j < in.J; j++ {
		idx := make([]int, in.I)
		coef := make([]float64, in.I)
		for i := 0; i < in.I; i++ {
			idx[i] = i*in.J + j
			coef[i] = 1
		}
		cons = append(cons, alm.Constraint{Idx: idx, Coeffs: coef, RHS: in.Workload[j]})
	}
	for i := 0; i < in.I; i++ {
		idx := make([]int, in.J)
		coef := make([]float64, in.J)
		for j := 0; j < in.J; j++ {
			idx[j] = i*in.J + j
			coef[j] = -1
		}
		cons = append(cons, alm.Constraint{Idx: idx, Coeffs: coef, RHS: -in.Capacity[i]})
	}
	return cons
}

// greedySlotObjective is the smoothed P0 slot cost
//
//	coef·x + Σ_i w_rc·c_i·sp_μ(X_i − X'_i)
//	       + Σ_ij (w_mg·b_i^out·sp_μ(x'_ij − x_ij) + w_mg·b_i^in·sp_μ(x_ij − x'_ij)).
type greedySlotObjective struct {
	nI, nJ  int
	coef    []float64
	prev    []float64
	prevTot []float64
	rc      []float64
	bOut    []float64
	bIn     []float64
	mu      float64

	tot []float64 // scratch
}

var _ fista.Objective = (*greedySlotObjective)(nil)

// Eval implements fista.Objective.
func (o *greedySlotObjective) Eval(x, grad []float64) float64 {
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
		f += o.rc[i] * smooth.Softplus(d, o.mu)
		rcGrad := o.rc[i] * smooth.SoftplusGrad(d, o.mu)
		base := i * o.nJ
		for j := 0; j < o.nJ; j++ {
			k := base + j
			v := x[k]
			f += o.coef[k] * v
			dv := v - o.prev[k]
			f += o.bOut[i]*smooth.Softplus(-dv, o.mu) + o.bIn[i]*smooth.Softplus(dv, o.mu)
			if grad != nil {
				grad[k] = o.coef[k] + rcGrad +
					o.bIn[i]*smooth.SoftplusGrad(dv, o.mu) -
					o.bOut[i]*smooth.SoftplusGrad(-dv, o.mu)
			}
		}
	}
	return f
}
