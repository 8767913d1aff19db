package core

import (
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/solver/alm"
)

// tightOpts are per-slot solver tolerances tight enough that two
// arithmetic paths solving the same convex program land in the same
// tolerance ball (see structured_test.go for the drift discussion).
// Tightening further is counterproductive: past ~1e-9 the outer loop
// stops converging within MaxOuter and the returned duals degrade.
func tightOpts() alm.Options {
	return alm.Options{MaxOuter: 200, InnerIters: 2000,
		FeasTol: 1e-9, DualTol: 1e-7, ObjTol: 1e-11}
}

// ultraTightOpts push the solver to ~1e-9 relative optimality. Only
// small instances converge under these within MaxOuter; Rome-sized
// solves hit the iteration cap and their duals degrade, which is why
// the Rome tests use tightOpts instead.
func ultraTightOpts() alm.Options {
	return alm.Options{MaxOuter: 400, InnerIters: 8000,
		FeasTol: 1e-10, DualTol: 1e-9, ObjTol: 1e-13}
}

// runSummed runs alg to the horizon and returns the schedule with the
// slots' diagnostics summed: the candidate and incremental counters are
// run totals, CandNNZ is the last slot's.
func runSummed(t *testing.T, alg *OnlineApprox) (model.Schedule, StepDiag) {
	t.Helper()
	var sum StepDiag
	for tt := 0; tt < alg.inst.T; tt++ {
		if _, err := alg.Step(tt); err != nil {
			t.Fatal(err)
		}
		d := alg.LastStepDiag()
		sum.CandRounds += d.CandRounds
		sum.CandExpanded += d.CandExpanded
		sum.CandNNZ = d.CandNNZ
		sum.FrozenUsers += d.FrozenUsers
		sum.ReadmittedUsers += d.ReadmittedUsers
	}
	return alg.Schedule(), sum
}

// smallRandomInstance builds a random instance small enough (I ≤ 5,
// J ≤ 5) that the ALM/FISTA stack solves P2 to ~1e-9 relative
// optimality, which is what lets the certified-equality property be
// checked at 1e-8 rather than at the ~1e-6 plateau of Rome-sized solves.
func smallRandomInstance(rng *rand.Rand) *model.Instance {
	nI := 3 + rng.Intn(3)
	nJ := 2 + rng.Intn(4)
	T := 3
	in := &model.Instance{
		I: nI, J: nJ, T: T,
		WOp: 1, WSq: 1, WRc: 1, WMg: 1,
	}
	for i := 0; i < nI; i++ {
		in.Capacity = append(in.Capacity, 2+4*rng.Float64())
		in.ReconfPrice = append(in.ReconfPrice, 0.5+rng.Float64())
		in.MigOutPrice = append(in.MigOutPrice, 0.3+0.4*rng.Float64())
		in.MigInPrice = append(in.MigInPrice, 0.3+0.4*rng.Float64())
	}
	in.InterDelay = make([][]float64, nI)
	for i := range in.InterDelay {
		in.InterDelay[i] = make([]float64, nI)
	}
	for i := 0; i < nI; i++ {
		for k := i + 1; k < nI; k++ {
			d := 0.5 + 3*rng.Float64()
			in.InterDelay[i][k] = d
			in.InterDelay[k][i] = d
		}
	}
	for j := 0; j < nJ; j++ {
		in.Workload = append(in.Workload, 0.3+rng.Float64())
	}
	for t := 0; t < T; t++ {
		op := make([]float64, nI)
		for i := range op {
			op[i] = 0.5 + 3*rng.Float64()
		}
		attach := make([]int, nJ)
		acc := make([]float64, nJ)
		for j := range attach {
			attach[j] = rng.Intn(nI)
			acc[j] = rng.Float64()
		}
		in.OpPrice = append(in.OpPrice, op)
		in.Attach = append(in.Attach, attach)
		in.AccessDelay = append(in.AccessDelay, acc)
	}
	return in
}

// recouple makes a copy of x the decision alg's next slot departs from, as
// if alg had committed it itself; the coupled-run tests steer two
// algorithms along one trajectory with it. Everything a commit derives from
// the decision is derived again: the slot's log record (now the whole
// copy, which the single program's spare grid must be levelled with in full),
// the carried totals, the columns the next touched-column repair still
// owes a visit, and the incremental tier's support index, left stale for
// the next slot that freezes users to rebuild.
func recouple(alg *OnlineApprox, x []float64) {
	in := alg.inst
	alg.prev = model.Alloc{I: in.I, J: in.J, X: append([]float64(nil), x...)}
	last := len(alg.log) - 1
	alg.log[last] = slotRecord{vals: alg.prev.X}
	alg.obj.carry(alg.prev)
	if s := alg.single; s != nil {
		s.grids.moved()
		s.support.fresh = false
		s.short = s.short[:0]
		for j, served := range alg.prev.UserTotals() {
			if in.Workload[j]-served > 0 {
				s.short = append(s.short, j)
			}
		}
	}
}

// coupledSlotGaps runs the dense and candidate-set paths over the same
// instance with the cross-slot drift removed: after each slot the sparse
// algorithm's previous decision is replaced by the dense
// decision, so both paths solve the *identical* P2 program at every
// slot. It returns the per-slot relative P2-objective gap between the
// two decisions, measured under an independently constructed objective.
func coupledSlotGaps(t *testing.T, in *model.Instance, candidates int, sopts alm.Options) []float64 {
	t.Helper()
	dense := NewOnlineApprox(in, Options{Solver: sopts})
	sparse := NewOnlineApprox(in, Options{Solver: sopts, Candidates: candidates})
	gaps := make([]float64, 0, in.T)
	for tt := 0; tt < in.T; tt++ {
		prevX := append([]float64(nil), dense.prev.X...)
		xd, err := dense.Step(tt)
		if err != nil {
			t.Fatal(err)
		}
		xs, err := sparse.Step(tt)
		if err != nil {
			t.Fatal(err)
		}
		obj := newP2Objective(in, tt,
			model.Alloc{I: in.I, J: in.J, X: prevX},
			sparse.opts.Epsilon1, sparse.opts.Epsilon2)
		fd := obj.Eval(xd.X, nil)
		fs := obj.Eval(xs.X, nil)
		gaps = append(gaps, math.Abs(fs-fd)/(1+math.Abs(fd)))
		if sparse.LastStepDiag().CandRounds == 0 {
			t.Errorf("slot %d did not run on the candidate path", tt)
		}
		// Couple the next slot: both paths continue from the dense decision.
		recouple(sparse, xd.X)
	}
	return gaps
}

// TestSparseMatchesDenseSmallInstances is the certified-equality
// property test of the candidate-set path: over random instances with
// the most aggressive pruning (Candidates = 1, so candidate sets are as
// wrong as the seed can make them and the pricing pass carries the whole
// burden), every slot's reduced solve must match the dense solve's P2
// cost to 1e-8 relative.
func TestSparseMatchesDenseSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		in := smallRandomInstance(rng)
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		for tt, d := range coupledSlotGaps(t, in, 1, ultraTightOpts()) {
			if d > 1e-8 {
				t.Errorf("trial %d slot %d (I=%d J=%d): P2 objective rel gap %g > 1e-8",
					trial, tt, in.I, in.J, d)
			}
		}
	}
}

// TestSparseMatchesDenseSlotCoupledRome is the same coupled comparison
// on a Rome mobility instance. At this size the ALM/FISTA stack itself
// plateaus around 1e-6 absolute optimality (two *dense* solves from
// different warm starts differ by as much), so the threshold is the
// solver's slack, not the reduction's: with the full candidate set the
// packed path reproduces the dense solve bit-for-bit, and the
// 1e-8-level certified-equality claim is pinned by
// TestSparseMatchesDenseSmallInstances where the solver can reach it.
func TestSparseMatchesDenseSlotCoupledRome(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 8, Horizon: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for tt, d := range coupledSlotGaps(t, in, 2, tightOpts()) {
		if d > 5e-7 {
			t.Errorf("slot %d: P2 objective rel gap %g > 5e-7", tt, d)
		}
	}
}

// TestSparseFullRunFeasibleAndCertified runs the candidate-set path
// uncoupled over a full horizon and requires everything the dense path
// guarantees: Theorem-1 feasibility of the schedule, a valid
// competitive-ratio certificate (dual-feasible to round-off, positive,
// below the online cost, and within the parameterized ratio bound), and
// end-to-end cost agreement with the dense run (loosened to 1e-4 by the
// warm-start drift chaining through five uncoupled slots).
func TestSparseFullRunFeasibleAndCertified(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 8, Horizon: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sparse := NewOnlineApprox(in, Options{Solver: tightOpts(), Candidates: 2})
	ss, st := runSummed(t, sparse)
	if err := in.CheckFeasible(ss, feasTol); err != nil {
		t.Fatalf("sparse schedule infeasible: %v", err)
	}
	if st.CandNNZ >= in.I*in.J {
		t.Errorf("candidate path never pruned: nnz %d of %d", st.CandNNZ, in.I*in.J)
	}
	dense := NewOnlineApprox(in, Options{Solver: tightOpts()})
	ds, err := dense.Run()
	if err != nil {
		t.Fatal(err)
	}
	scost := totalOf(t, in, ss)
	dcost := totalOf(t, in, ds)
	if d := math.Abs(scost-dcost) / (1 + math.Abs(dcost)); d > 1e-4 {
		t.Errorf("total cost %g sparse vs %g dense (rel %g)", scost, dcost, d)
	}

	cert, err := sparse.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	if v := cert.Feasibility.Max(); v > 1e-6 {
		t.Errorf("dual feasibility violation %g, want round-off level", v)
	}
	lb := cert.LowerBoundP1()
	if lb <= 0 {
		t.Errorf("certified lower bound %g, want positive", lb)
	}
	if lb > scost*(1+1e-9) {
		t.Errorf("certified lower bound %g exceeds online cost %g", lb, scost)
	}
	if r := RatioBound(in, sparse.opts.Epsilon1, sparse.opts.Epsilon2); scost > r*lb {
		t.Errorf("online cost %g above ratio bound %g × lower bound %g", scost, r, lb)
	}
}

// expansionInstance is a three-cloud, one-user instance built to defeat
// the candidate seed: the user stays attached to cloud 0 (whose only
// nearest-1 cloud is itself) and the workload starts there, so with
// Candidates = 1 slot 1's seed is K = {0}. Slot 1 then spikes cloud 0's
// operation price so hard that the true optimum migrates to cloud 2 —
// reachable only through the dual-feasibility pricing pass.
func expansionInstance() *model.Instance {
	in := &model.Instance{
		I:           3,
		J:           1,
		T:           2,
		Capacity:    []float64{4, 4, 4},
		InterDelay:  [][]float64{{0, 1, 2}, {1, 0, 1}, {2, 1, 0}},
		Workload:    []float64{1},
		ReconfPrice: []float64{1, 1, 1},
		MigOutPrice: []float64{0.5, 0.5, 0.5},
		MigInPrice:  []float64{0.5, 0.5, 0.5},
		WOp:         1, WSq: 1, WRc: 1, WMg: 1,
		OpPrice:     [][]float64{{1, 1.5, 2}, {60, 30, 1}},
		Attach:      [][]int{{0}, {0}},
		AccessDelay: [][]float64{{1}, {1}},
	}
	init := model.NewAlloc(3, 1)
	init.Set(0, 0, 1)
	in.Init = &init
	return in
}

// TestSparseForcedExpansion pins the expansion loop itself: on a seed
// that provably excludes the optimal cloud, the pricing pass must admit
// it (Expanded > 0, with at least one re-solve round) and the certified
// result must still match the dense solve.
func TestSparseForcedExpansion(t *testing.T) {
	in := expansionInstance()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	sparse := NewOnlineApprox(in, Options{Solver: tightOpts(), Candidates: 1})
	ss, st := runSummed(t, sparse)
	if st.CandExpanded == 0 {
		t.Errorf("pricing pass admitted no pairs; expansion loop untested (run totals %+v)", st)
	}
	if st.CandRounds <= in.T {
		t.Errorf("no re-solve rounds recorded (run totals %+v)", st)
	}
	dense := NewOnlineApprox(in, Options{Solver: tightOpts()})
	ds, err := dense.Run()
	if err != nil {
		t.Fatal(err)
	}
	for tt := range ds {
		for k := range ds[tt].X {
			if d := math.Abs(ss[tt].X[k] - ds[tt].X[k]); d > 1e-5 {
				t.Errorf("slot %d: x[%d] = %g sparse vs %g dense", tt, k, ss[tt].X[k], ds[tt].X[k])
			}
		}
	}
	// The spike must actually have moved the workload off cloud 0, or the
	// instance stopped exercising what it claims to.
	if ds[1].At(2, 0) < 0.5 {
		t.Fatalf("dense optimum kept workload on spiked cloud (x = %v); fix the instance", ds[1].X)
	}
}

// TestSparseWorkersByteIdentical extends the determinism contract to the
// ragged objective: the candidate-set run must be bitwise-identical for
// any Solver.Workers value.
func TestSparseWorkersByteIdentical(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 10, Horizon: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) model.Schedule {
		alg := NewOnlineApprox(in, Options{Candidates: 3,
			Solver: alm.Options{Workers: workers}})
		s, err := alg.Run()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := run(1)
	for _, w := range []int{2, 4, 7} {
		got := run(w)
		for tt := range base {
			for k := range base[tt].X {
				if got[tt].X[k] != base[tt].X[k] {
					t.Fatalf("workers=%d slot %d: x[%d] = %v != serial %v",
						w, tt, k, got[tt].X[k], base[tt].X[k])
				}
			}
		}
	}
}

// TestSparseFullCandidateSetMatchesDenseExactly pins the layout
// equivalence underlying everything above: with Candidates = I nothing
// is pruned, the packed CSR layout enumerates the grid in dense order,
// and the candidate path must reproduce the default path bit-for-bit —
// decisions, dual records, and the work each slot reports, down to one
// certified round over I·J pairs.
func TestSparseFullCandidateSetMatchesDenseExactly(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 6, Horizon: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	work := func(d StepDiag) StepDiag {
		return StepDiag{Outer: d.Outer, Inner: d.Inner, Evals: d.Evals,
			CandRounds: d.CandRounds, CandExpanded: d.CandExpanded, CandNNZ: d.CandNNZ}
	}
	dense := NewOnlineApprox(in, Options{})
	full := NewOnlineApprox(in, Options{Candidates: in.I})
	for tt := 0; tt < in.T; tt++ {
		for _, a := range []*OnlineApprox{dense, full} {
			if _, err := a.Step(tt); err != nil {
				t.Fatal(err)
			}
		}
		dd, fd := work(dense.LastStepDiag()), work(full.LastStepDiag())
		if dd != fd || dd.CandRounds != 1 || dd.CandExpanded != 0 || dd.CandNNZ != in.I*in.J {
			t.Errorf("slot %d: default reports %+v, Candidates = I %+v; want both one round over %d pairs",
				tt, dd, fd, in.I*in.J)
		}
		if k := sameBits(full.duals[tt], dense.duals[tt]); k >= 0 {
			t.Fatalf("slot %d: dual %d = %v sparse != %v dense", tt, k, full.duals[tt][k], dense.duals[tt][k])
		}
	}
	ds, ss := dense.Schedule(), full.Schedule()
	for tt := range ds {
		if k := sameBits(ss[tt].X, ds[tt].X); k >= 0 {
			t.Fatalf("slot %d: x[%d] = %v sparse != %v dense", tt, k, ss[tt].X[k], ds[tt].X[k])
		}
	}
}
