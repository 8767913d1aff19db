package alm

import "edgealloc/internal/solver/par"

// This file implements the structured group-sum constraint kernel. Every
// constraint row the solvers build is a *group sum* over an I×J
// allocation grid (possibly repeated over T slot blocks):
//
//   - demand rows sum a user's column:        Σ_i x_{ij} ≥ λ_j
//   - capacity rows sum a cloud's row:       −Σ_j x_{ij} ≥ −C_i
//
// (The paper's complement rows Σ_{k≠i} Σ_j x_{kj} ≥ (Λ−C_i)⁺ are implied
// by these two, DESIGN.md §3b, and no program carries them.) Materialized
// as generic sparse rows (Constraint) each row costs its nonzeros per
// augmented-Lagrangian evaluation and carries index and coefficient
// slices. The structured form computes per-block cloud totals and user
// totals once per evaluation — O(I·J) — and derives every row activity
// from them in O(1); the transpose-gradient contribution of all rows is
// fused into a single O(I·J) pass using per-cloud and per-user multiplier
// aggregates.
//
// The heavy passes are threshold-gated parallel (see internal/solver/par)
// with per-slot result buffers reduced in index order, so results are
// byte-identical for any Options.Workers value.

// GroupKind enumerates the structured row shapes over one I×J block.
type GroupKind uint8

const (
	// GroupUserSum is a demand-style column sum: Σ_i x[off+i·J+Index] with
	// coefficient +1 (Index is a user j).
	GroupUserSum GroupKind = iota
	// GroupCloudSumNeg is a capacity-style negated row sum:
	// −Σ_j x[off+Index·J+j] (Index is a cloud i).
	GroupCloudSumNeg
)

// GroupRow is one structured inequality row A_k·x ≥ RHS, where A_k is
// determined by (Block, Kind, Index). Rows carry no index or coefficient
// slices: their geometry is implicit, so a full constraint set is O(I+J)
// words per block instead of O(I·J).
type GroupRow struct {
	// Block selects the slot block the row sums over (0 for single-slot
	// programs; the offline program has one block per slot).
	Block int
	// Kind selects the group shape.
	Kind GroupKind
	// Index is the user j (GroupUserSum) or cloud i (GroupCloudSumNeg).
	Index int
	// RHS is the row's right-hand side b_k.
	RHS float64
}

// Groups is a structured constraint set over Blocks consecutive I×J
// variable blocks laid out x[b·I·J + i·J + j]. The k-th row of Rows owns
// the k-th dual multiplier in Result.Duals, exactly like Cons rows do.
// Rows must not be mutated during a Solve.
//
// Setting RowPtr/Cols switches the single-block grid to a ragged
// cloud-major subset (the candidate-set solving layer of the online
// algorithm): the variable vector then holds only the kept (i, j) pairs,
// cloud i's variables occupying x[RowPtr[i]:RowPtr[i+1]] with users
// Cols[k]. Row semantics are unchanged — a pruned pair simply contributes
// nothing to any sum — so the dual layout is identical to the dense
// grid's and multipliers warm-start across layouts.
type Groups struct {
	// I and J are the per-block grid dimensions (clouds × users).
	I, J int
	// Blocks is the number of consecutive blocks; Blocks·I·J must equal
	// Problem.N (dense layout only).
	Blocks int
	// Rows are the structured rows in dual order.
	Rows []GroupRow

	// RowPtr and Cols optionally restrict the grid to a ragged cloud-major
	// subset (CSR): len(RowPtr) = I+1, nondecreasing, and Cols[k] in
	// [0, J) is the user of packed variable k. Requires Blocks == 1 and
	// Problem.N = RowPtr[I] = len(Cols). Within each cloud row the users
	// must be in the storage order the caller packs x in; ascending order
	// makes the user-total accumulation order match the dense kernel's.
	RowPtr []int
	Cols   []int

	// hasUser is set during validation and skips the user-total pass when
	// no demand row is present.
	hasUser bool
}

// ragged reports whether the grid uses the CSR layout.
func (g *Groups) ragged() bool { return g.RowPtr != nil }

// NumRows returns the number of structured rows (the dual dimension).
func (g *Groups) NumRows() int { return len(g.Rows) }

// validate checks the geometry against n variables and caches the
// kind-presence flag.
func (g *Groups) validate(n int) error {
	if g.I <= 0 || g.J <= 0 || g.Blocks <= 0 {
		return errf("groups shape I=%d J=%d Blocks=%d must be positive", g.I, g.J, g.Blocks)
	}
	if g.ragged() {
		if g.Blocks != 1 {
			return errf("ragged groups require Blocks=1, have %d", g.Blocks)
		}
		if len(g.RowPtr) != g.I+1 || g.RowPtr[0] != 0 {
			return errf("ragged groups RowPtr len=%d first=%d, want len %d first 0",
				len(g.RowPtr), g.RowPtr[0], g.I+1)
		}
		for i := 0; i < g.I; i++ {
			if g.RowPtr[i+1] < g.RowPtr[i] {
				return errf("ragged groups RowPtr decreases at cloud %d", i)
			}
		}
		if g.RowPtr[g.I] != n || len(g.Cols) != n {
			return errf("ragged groups cover %d variables (len(Cols)=%d), problem has %d",
				g.RowPtr[g.I], len(g.Cols), n)
		}
		for k, j := range g.Cols {
			if j < 0 || j >= g.J {
				return errf("ragged groups Cols[%d]=%d out of [0,%d)", k, j, g.J)
			}
		}
	} else if g.Blocks*g.I*g.J != n {
		return errf("groups cover %d variables, problem has %d", g.Blocks*g.I*g.J, n)
	}
	g.hasUser = false
	for k, r := range g.Rows {
		if r.Block < 0 || r.Block >= g.Blocks {
			return errf("groups row %d references block %d of %d", k, r.Block, g.Blocks)
		}
		switch r.Kind {
		case GroupUserSum:
			if r.Index < 0 || r.Index >= g.J {
				return errf("groups row %d references user %d of %d", k, r.Index, g.J)
			}
			g.hasUser = true
		case GroupCloudSumNeg:
			if r.Index < 0 || r.Index >= g.I {
				return errf("groups row %d references cloud %d of %d", k, r.Index, g.I)
			}
		default:
			return errf("groups row %d has unknown kind %d", k, r.Kind)
		}
	}
	return nil
}

// parGrain is the minimum number of grid variables per worker before the
// structured kernels go parallel; below it goroutine startup dominates.
// Overridable by tests to exercise the parallel paths on small problems.
var parGrain = 16384

// groupScratch holds the per-evaluation aggregates of the structured
// kernel, sized once per workspace.
type groupScratch struct {
	cloudTot []float64 // Blocks×I row sums
	userTot  []float64 // Blocks×J column sums
	du       []float64 // Blocks×J summed demand multipliers
	dcap     []float64 // Blocks×I summed capacity multipliers
}

func (sc *groupScratch) ensure(g *Groups) {
	bi, bj := g.Blocks*g.I, g.Blocks*g.J
	if cap(sc.cloudTot) < bi {
		sc.cloudTot = make([]float64, bi)
		sc.dcap = make([]float64, bi)
	}
	sc.cloudTot, sc.dcap = sc.cloudTot[:bi], sc.dcap[:bi]
	if cap(sc.userTot) < bj {
		sc.userTot = make([]float64, bj)
		sc.du = make([]float64, bj)
	}
	sc.userTot, sc.du = sc.userTot[:bj], sc.du[:bj]
}

// cloudTotRange fills sc.cloudTot for grid rows [lo, hi). Named (not a
// closure) so the serial path allocates nothing; the parallel path wraps
// it in a closure whose one allocation is amortized by the fan-out.
func (g *Groups) cloudTotRange(x []float64, sc *groupScratch, lo, hi int) {
	nJ := g.J
	for r := lo; r < hi; r++ {
		row := x[r*nJ : (r+1)*nJ]
		s := 0.0
		for _, v := range row {
			s += v
		}
		sc.cloudTot[r] = s
	}
}

// userTotRange fills sc.userTot for columns [lo, hi) of the Blocks×J
// column index space, summing each user's strided column in cloud order.
func (g *Groups) userTotRange(x []float64, sc *groupScratch, lo, hi int) {
	nJ := g.J
	nIJ := g.I * nJ
	for c := lo; c < hi; c++ {
		b, j := c/nJ, c%nJ
		s := 0.0
		for k := b*nIJ + j; k < (b+1)*nIJ; k += nJ {
			s += x[k]
		}
		sc.userTot[c] = s
	}
}

// cloudTotRaggedRange fills sc.cloudTot for ragged cloud rows [lo, hi).
func (g *Groups) cloudTotRaggedRange(x []float64, sc *groupScratch, lo, hi int) {
	for r := lo; r < hi; r++ {
		s := 0.0
		for _, v := range x[g.RowPtr[r]:g.RowPtr[r+1]] {
			s += v
		}
		sc.cloudTot[r] = s
	}
}

// axIntoRagged is the CSR-layout activity kernel: O(nnz) per call. The
// user-total scatter stays serial — columns of different cloud rows
// collide — but it accumulates each column in ascending cloud order, the
// same order as the dense kernels, and cloud rows still fan out.
func (g *Groups) axIntoRagged(x, ax []float64, sc *groupScratch, workers int) {
	nI := g.I
	if w := par.Bound(workers, len(x), parGrain); w <= 1 {
		g.cloudTotRaggedRange(x, sc, 0, nI)
	} else {
		par.Ranges(w, nI, func(lo, hi int) { g.cloudTotRaggedRange(x, sc, lo, hi) })
	}
	if g.hasUser {
		ut := sc.userTot[:g.J]
		for j := range ut {
			ut[j] = 0
		}
		for k, j := range g.Cols {
			ut[j] += x[k]
		}
	}
	for k, r := range g.Rows {
		if r.Kind == GroupUserSum {
			ax[k] = sc.userTot[r.Index]
		} else {
			ax[k] = -sc.cloudTot[r.Index]
		}
	}
}

// axInto writes every row activity A_k·x into ax from once-per-call
// totals: O(I·J) per block plus O(1) per row.
func (g *Groups) axInto(x, ax []float64, sc *groupScratch, workers int) {
	if g.ragged() {
		g.axIntoRagged(x, ax, sc, workers)
		return
	}
	nI, nJ := g.I, g.J
	rows := g.Blocks * nI
	if w := par.Bound(workers, rows*nJ, parGrain); w <= 1 {
		if g.hasUser {
			// Serial fused pass: the cloud and user totals read the same
			// grid, so one sweep fills both. Each userTot[j] accumulates
			// its column in ascending cloud order — the same order the
			// strided userTotRange sums — so the bits match the parallel
			// branch exactly.
			for c := range sc.userTot {
				sc.userTot[c] = 0
			}
			for r := 0; r < rows; r++ {
				row := x[r*nJ : (r+1)*nJ]
				ut := sc.userTot[(r/nI)*nJ : (r/nI+1)*nJ]
				s := 0.0
				for j, v := range row {
					s += v
					ut[j] += v
				}
				sc.cloudTot[r] = s
			}
		} else {
			g.cloudTotRange(x, sc, 0, rows)
		}
	} else {
		par.Ranges(w, rows, func(lo, hi int) { g.cloudTotRange(x, sc, lo, hi) })
		if g.hasUser {
			cols := g.Blocks * nJ
			par.Ranges(par.Bound(workers, g.Blocks*nI*nJ, parGrain), cols,
				func(lo, hi int) { g.userTotRange(x, sc, lo, hi) })
		}
	}
	for k, r := range g.Rows {
		if r.Kind == GroupUserSum {
			ax[k] = sc.userTot[r.Block*nJ+r.Index]
		} else {
			ax[k] = -sc.cloudTot[r.Block*nI+r.Index]
		}
	}
}

// addGrad accumulates grad −= Σ_k mult[k]·A_k in one fused O(I·J) pass:
// the variable at (block b, cloud i, user j) receives dcap[b,i] − du[b,j].
func (g *Groups) addGrad(mult, grad []float64, sc *groupScratch, workers int) {
	nI, nJ := g.I, g.J
	for k := range sc.du {
		sc.du[k] = 0
	}
	for k := range sc.dcap {
		sc.dcap[k] = 0
	}
	for k, r := range g.Rows {
		m := mult[k]
		if m == 0 {
			continue
		}
		if r.Kind == GroupUserSum {
			sc.du[r.Block*nJ+r.Index] += m
		} else {
			sc.dcap[r.Block*nI+r.Index] += m
		}
	}
	if g.ragged() {
		if w := par.Bound(workers, len(grad), parGrain); w <= 1 {
			g.gradRaggedRange(grad, sc, 0, nI)
		} else {
			par.Ranges(w, nI, func(lo, hi int) { g.gradRaggedRange(grad, sc, lo, hi) })
		}
		return
	}
	rows := g.Blocks * nI
	if w := par.Bound(workers, rows*nJ, parGrain); w <= 1 {
		g.gradRange(grad, sc, 0, rows)
	} else {
		par.Ranges(w, rows, func(lo, hi int) { g.gradRange(grad, sc, lo, hi) })
	}
}

// gradRaggedRange applies the fused gradient pass to ragged cloud rows
// [lo, hi): packed variable k of cloud r receives dcap[r] − du[Cols[k]].
func (g *Groups) gradRaggedRange(grad []float64, sc *groupScratch, lo, hi int) {
	for r := lo; r < hi; r++ {
		rowAdd := sc.dcap[r]
		gi := grad[g.RowPtr[r]:g.RowPtr[r+1]]
		cols := g.Cols[g.RowPtr[r]:g.RowPtr[r+1]]
		if g.hasUser {
			if rowAdd == 0 {
				for k, j := range cols {
					gi[k] -= sc.du[j]
				}
			} else {
				for k, j := range cols {
					gi[k] += rowAdd - sc.du[j]
				}
			}
		} else if rowAdd != 0 {
			for k := range gi {
				gi[k] += rowAdd
			}
		}
	}
}

// gradRange applies the fused per-cloud-row gradient pass to grid rows
// [lo, hi); named so the serial path allocates nothing.
func (g *Groups) gradRange(grad []float64, sc *groupScratch, lo, hi int) {
	nI, nJ := g.I, g.J
	for r := lo; r < hi; r++ {
		rowAdd := sc.dcap[r]
		gi := grad[r*nJ : (r+1)*nJ]
		if g.hasUser {
			du := sc.du[r/nI*nJ : (r/nI+1)*nJ]
			if rowAdd == 0 {
				for j := range gi {
					gi[j] -= du[j]
				}
			} else {
				for j := range gi {
					gi[j] += rowAdd - du[j]
				}
			}
		} else if rowAdd != 0 {
			for j := range gi {
				gi[j] += rowAdd
			}
		}
	}
}
