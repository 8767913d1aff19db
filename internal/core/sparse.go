package core

import (
	"context"
	"math"
	"time"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
)

// This file implements the candidate-set (active-set) solving layer of
// the online algorithm. P2 is posed over the full I×J grid, but its cost
// geometry — service-quality delay d(l_{j,t}, i) plus migration
// penalties — puts almost all of each user's mass on a handful of clouds
// near its attachment, so at the optimum the vast majority of variables
// sit at the zero bound. With Options.Candidates = k the per-slot solve
// is restricted to the ragged space K_j = {k clouds nearest l_{j,t}} ∪
// {clouds with x'_{ij} > 0}: Σ_j |K_j| variables instead of I·J, and
// every objective evaluation inside the ALM loop drops proportionally.
//
// The reduction is certified, not heuristic. Because every carryover
// cloud stays in K_j, a pruned pair has x'_{ij} = 0, so its migration
// regularizer vanishes at x_{ij} = 0 and the reduced objective equals
// the full objective on the embedded point (x_K, 0). After each reduced
// solve the converged ALM multipliers (θ'_j demand, ν'_i capacity — the
// same S_D machinery the competitive-ratio certificate consumes) price
// every pruned pair:
//
//	redcost(i, j) = ā_{ij,t} + (ĉ_i/η_i)·ln((X_i+ε₁)/(X'_i+ε₁))
//	                − θ'_j + ν'_i,
//
// the KKT stationarity residual of x_{ij} at its lower bound. If every
// pruned pair prices nonnegative, the embedded point satisfies the full
// problem's KKT system with the reduced duals — it IS the full optimum
// (to the solver's own dual accuracy, the same caveat the dense solve
// carries). Mispriced pairs join K_j and the solve resumes warm, on the
// union index set, with the multipliers carried over unchanged (the dual
// dimension never changes: rows are per-user and per-cloud, not
// per-variable). Sets only grow, so the loop terminates — in the worst
// case at the dense grid, which costs what the dense solve always cost.
//
// The loop below is the one certified solve loop of every single-program
// tier, on the one ragged program; the tiers differ only in the data they
// hand it. Options.Candidates = k seeds each user with its k nearest
// clouds, and the default (0) with all I, which lays the program out over
// the full grid in dense order: nothing is pruned, so its first round is
// certified. Options.Incremental adds an active mask (incremental.go).
type singleState struct {
	p2Program
	builder *model.CandidateBuilder
	cand    model.CandidateSet
	// nearest[a] lists the Options.Candidates clouds (all I when 0)
	// closest to cloud a by inter-cloud delay; users are seeded with
	// nearest[l_{j,t}].
	nearest [][]int
	cons    []alm.Constraint // Options.denseRows reference rows

	// active marks the users that re-solve this slot and actList lists
	// them ascending; demand row p of the program is user actList[p].
	// Everyone is active unless Options.Incremental froze them. The solver
	// sees the active users only, numbered by that position: userPos[j] is
	// active user j's and userCols the candidate set's users renumbered by
	// it, so the per-evaluation user scratch of the structured rows
	// (alm.Groups) is sized to the program, not to J.
	active   []bool
	actList  []int
	userPos  []int
	userCols []int

	frozenTot []float64 // F_i: per-cloud flow carried by frozen users
	// frozenSupp lists the frozen users' support pairs in the carried
	// decision, collected by the walk that sums frozenTot; the gate tests
	// them and reads nothing else of it.
	frozenSupp []supportPair
	tot        []float64      // per-cloud totals of the round's decision
	base       []float64      // per-cloud gradient term shared by gate and pricing
	rows       []alm.GroupRow // active demand + capacity rows

	// duals are the working multipliers in the full [θ | ν] layout:
	// seeded from the committed duals, updated by every round (so an
	// expansion or re-admission round resumes from the round before it),
	// completed by the gate for frozen users, and returned to Step.
	// packed is their gather into the program's [θ_active | ν] row layout.
	duals  []float64
	packed []float64

	// colMin and viol are the freeze gate's per-user scratch (gateColumns).
	colMin []float64
	viol   []bool
	// short lists the users whose committed column still summed below its
	// demand after the repair; with the slot's active users they are the
	// columns the next commit repairs (repairTouched). visit lists them, and
	// they are the only columns that slot wrote: its log record's.
	// RestoreState derives short from the carried decision (restoreShort).
	short, visit []int
	// grids are the two decision grids: a slot assembles in the spare one
	// while the carried decision stays unwritten, and its commit makes the
	// spare the carried decision (StepCtx). Both exist from the start so
	// that only a slot that writes every column allocates one.
	grids gridPair
	// support indexes the carried decision's support per user, for
	// frozenFlow (allocated with Incremental only).
	support supportIndex
}

// initSingle builds the per-instance single-program state: the rows, the
// working duals, and the ragged layer. With Candidates = 0 every user is
// seeded with all I clouds, so the layout is the full grid in dense order
// and the reduction prunes nothing; Incremental without Candidates solves
// its active users over all I clouds the same way.
func (o *OnlineApprox) initSingle(in *model.Instance) {
	s := &singleState{
		builder:   model.NewCandidateBuilder(in.I, in.J),
		nearest:   nearestClouds(in, o.opts.Candidates),
		active:    make([]bool, in.J),
		actList:   make([]int, 0, in.J),
		userPos:   make([]int, in.J),
		frozenTot: make([]float64, in.I),
		tot:       make([]float64, in.I),
		base:      make([]float64, in.I),
		rows:      make([]alm.GroupRow, 0, in.J+in.I),
		duals:     make([]float64, in.J+in.I),
		packed:    make([]float64, in.J+in.I),
		colMin:    make([]float64, in.J),
		viol:      make([]bool, in.J),
		grids:     gridPair{all: true, stale: make([]int, 0, in.J)},
	}
	s.groups = alm.Groups{I: in.I, J: in.J}
	for j := range s.active {
		s.active[j] = true
	}
	s.buildRows(in, nil)
	s.obj = newPackedObjective(in.I, o.opts.Epsilon1, o.opts.Epsilon2, o.opts.FastMath)
	s.obj.workers = o.opts.Solver.Workers
	s.obj.rcFac, s.obj.prevTot = o.obj.rcFac, o.obj.prevTot
	s.grids.buf[0], s.grids.buf[1] = make([]float64, in.I*in.J), make([]float64, in.I*in.J)
	if o.opts.Incremental {
		s.support = newSupportIndex(in.I, in.J)
	}
	if o.opts.denseRows {
		s.cons = p2Constraints(in)
	}
	o.single = s
}

// nearestClouds is model.NearestClouds at the run's candidate count; with
// candidates off every list is the full cloud set.
func nearestClouds(in *model.Instance, k int) [][]int {
	if k <= 0 {
		k = in.I
	}
	return model.NearestClouds(in.InterDelay, k)
}

// seedUser admits user j's seed pairs: the clouds nearest its slot-t
// attachment plus the support of its column of the dense point x. The
// warm start is the previous decision — whose support is exactly the
// carryover set that keeps migration terms exact — except at a zero-
// allocation t = 0, where it is the slot's transportation optimum (see
// warmPoint) and its support must be admitted for the warm point to be
// representable.
func (o *OnlineApprox) seedUser(t, j int, x []float64) {
	in, b := o.inst, o.single.builder
	b.AddUserSet(j, o.single.nearest[in.Attach[t][j]])
	for i := 0; i < in.I; i++ {
		if x[i*in.J+j] != 0 {
			b.Add(i, j)
		}
	}
}

// solveSingle runs slot t's certified single-program solve: seed the
// layout, then solve, price, and gate until a round changes nothing. img
// is the decision under assembly — a copy of the carried decision that
// every round's packed solution is scattered into, so frozen columns and
// pruned pairs keep their carried values and a later round warm-starts
// from the image of the one before. It returns img, the multipliers in the
// standard [θ | ν] layout (s.duals, valid until the next call), and the
// slot's diagnostics.
func (o *OnlineApprox) solveSingle(ctx context.Context, t int, img []float64) ([]float64, []float64, StepDiag, error) {
	in, s := o.inst, o.single
	nI, nJ := in.I, in.J
	var d StepDiag
	warm := o.warmPoint(t)

	// The working duals start from the committed ones, the previous slot's
	// dual record.
	if t > 0 {
		copy(s.duals, o.duals[t-1])
	} else {
		clear(s.duals)
	}

	s.builder.Reset()
	for j := range s.active {
		s.active[j] = !o.opts.Incremental || t == 0 || in.Attach[t][j] != in.Attach[t-1][j]
		if s.active[j] {
			o.seedUser(t, j, warm)
		}
	}
	s.builder.Build(&s.cand)
	s.buildRows(in, o.prev.X)

	sopts := o.opts.Solver
	sopts.Workspace = &o.ws
	sopts.Ctx = ctx
	nAct, nnz, rounds := 0, 0, 0
	for {
		nAct, nnz = len(s.actList), s.cand.NNZ()
		// With every user frozen there is no program to solve: the gate
		// tests the carried decision at the committed prices, and any
		// violation re-enters the loop with a nonempty active set.
		d.Converged = true
		copy(s.tot, s.frozenTot)
		if nAct > 0 {
			s.gather(o.obj, &s.cand, 0, warm)
			s.userCols = s.userCols[:0]
			for _, j := range s.cand.Cols {
				s.userCols = append(s.userCols, s.userPos[j])
			}
			s.groups.J, s.groups.Cols = nAct, s.userCols
			s.obj.totOff = nil
			if nAct < nJ {
				s.obj.totOff = s.frozenTot
			}
			sopts.WarmX = s.warm
			o.prob = alm.Problem{Obj: &s.obj, N: nnz, Cons: s.cons}
			if s.cons == nil {
				o.prob.Groups = &s.groups
			}
			// Program dual layout: active demand rows, then ν.
			for p, j := range s.actList {
				s.packed[p] = s.duals[j]
			}
			copy(s.packed[nAct:], s.duals[nJ:])
			sopts.WarmDuals = s.packed[:nAct+nI]
			r, err := alm.Solve(&o.prob, sopts)
			if err != nil {
				return nil, nil, d, err
			}
			rounds++
			d.Outer += r.Outer
			d.Inner += r.InnerIters
			d.Evals += r.Evals
			d.DualSteps += r.DualSteps
			d.DualRefused += r.DualRefused
			d.Converged, d.Stop, d.Residual, d.Stationarity = r.Converged, r.Stop, r.Sigma, r.ProjGrad
			for p, j := range s.actList {
				s.duals[j] = r.Duals[p]
			}
			copy(s.duals[nJ:], r.Duals[nAct:])
			scatterInto(img, nJ, 0, &s.cand, r.X)
			s.obj.addTotals(s.tot, r.X)
		}
		warm = img

		// Certify the round: price the active users' pruned pairs and gate
		// the frozen users' carried columns, both against the multipliers
		// the bounded solve produced, converged or not — under a deployment
		// budget the duals carry penalty-scaled noise and the relative
		// tolerances are what absorb it, while under the converged budgets
		// of the property tests both tests are exact.
		certStart := time.Now()
		o.obj.kktBase(s.base, s.tot, s.duals[nJ:])
		added := priceExpand(o.obj, s.base, s.duals, s.builder, s.actList, 0, o.opts.CandidateTol)
		readmitted := 0
		if nAct < nJ {
			readmitted = o.gateFrozen(t)
		}
		d.CertifySeconds += time.Since(certStart).Seconds()
		if added == 0 && readmitted == 0 {
			break
		}
		d.CandExpanded += added
		d.ReadmittedUsers += readmitted
		if readmitted > 0 {
			s.buildRows(in, o.prev.X)
		}
		s.builder.Build(&s.cand)
	}
	d.CandRounds, d.CandNNZ = rounds, nnz
	d.FrozenUsers = nJ - nAct
	return img, s.duals, d, nil
}

// repairTouched is the model-layer repair of a slot's assembled
// decision x, on the columns that can need it: the active users', which
// the slot wrote, and the ones the previous commit left short of their
// demand. Every other column is the carried decision's, which that commit
// saw serve its demand, so Instance.Repair would pass over it too
// (Instance.RepairColumns).
func (s *singleState) repairTouched(in *model.Instance, x model.Alloc, served []float64) {
	s.visit = append(s.visit[:0], s.actList...)
	for _, j := range s.short {
		if !s.active[j] {
			s.visit = append(s.visit, j)
		}
	}
	s.short = in.RepairColumns(x, s.visit, served, s.short[:0])
}

// restoreShort derives short from the carried decision x of a restored
// run: the users x serves below their demand, each total summed in
// ascending i as RepairColumns sums a repaired column (tot is scratch of
// length J). Every column the last commit did not list was left serving
// its demand, so this is the list that commit returned.
func (s *singleState) restoreShort(in *model.Instance, x model.Alloc, tot []float64) {
	x.UserTotalsInto(tot)
	s.short = s.short[:0]
	for j, served := range tot {
		if in.Workload[j]-served > 0 {
			s.short = append(s.short, j)
		}
	}
}

// kktBase fills base[i] = rcFac_i·ln((tot_i+ε₁)/(X'_i+ε₁)) + ν_i: the part
// of pair (i, j)'s reduced gradient that does not depend on the user. tot
// are the decision's per-cloud totals; demand row j contributes −θ_j on
// top and the negated capacity row i contributes +ν_i.
func (d *p2Objective) kktBase(base, tot, nu []float64) {
	for i := range base {
		rcln := d.rcFac[i] * math.Log((tot[i]+d.eps1)/(d.prevTot[i]+d.eps1))
		base[i] = rcln + nu[i]
	}
}

// priceExpand is the pricing pass: it checks dual feasibility (KKT
// stationarity at the zero bound) on every pruned pair of the listed
// users and admits the violated ones into the builder, returning how many
// were added. users and theta index the builder's columns, which are the
// dense slot data d's columns from colLo on. Pruned pairs have x'_{ij} =
// 0 by the carryover rule, so their migration gradient at zero vanishes
// and the reduced cost needs only the static coefficient, base, and θ.
func priceExpand(d *p2Objective, base, theta []float64, b *model.CandidateBuilder, users []int, colLo int, tol float64) int {
	added := 0
	for i, wa := range d.wa {
		sq := d.sq[i*d.nJ+colLo:]
		for _, j := range users {
			if b.Contains(i, j) {
				continue
			}
			c := wa + sq[j]
			if c+base[i]-theta[j] < -tol*(1+math.Abs(c)) {
				b.Add(i, j)
				added++
			}
		}
	}
	return added
}
