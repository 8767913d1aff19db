package alm

// This file implements the structured group-sum constraint kernel. Every
// constraint row the solvers build is a *group sum* over a cloud-major CSR
// grid of (cloud row, user) pairs:
//
//   - demand rows sum a user's column:        Σ_i x_{ij} ≥ λ_j
//   - capacity rows sum a cloud's row:       −Σ_j x_{ij} ≥ −C_i
//
// (The paper's complement rows Σ_{k≠i} Σ_j x_{kj} ≥ (Λ−C_i)⁺ are implied
// by these two, DESIGN.md §3b, and no program carries them.) Rather than
// summing each row's nonzeros per augmented-Lagrangian evaluation, the
// kernel computes every cloud row's total and every user's total once per
// evaluation — O(nnz) — and derives every row
// activity from them in O(1); the transpose-gradient contribution of all
// rows is fused into a single O(nnz) pass using per-cloud and per-user
// multiplier aggregates.
//
// Both passes run serially on the caller's goroutine: the per-slot
// programs stay far below the size at which a fan-out pays.

// GroupKind enumerates the structured row shapes over the grid.
type GroupKind uint8

const (
	// GroupUserSum is a demand-style column sum: Σ_k x[k] over the packed
	// variables k with Cols[k] = Index (Index is a user j).
	GroupUserSum GroupKind = iota
	// GroupCloudSumNeg is a capacity-style negated row sum:
	// −Σ_k x[k] over x[RowPtr[Index]:RowPtr[Index+1]] (Index is a cloud row i).
	GroupCloudSumNeg
)

// GroupRow is one structured inequality row A_k·x ≥ RHS, where A_k is
// determined by (Kind, Index). Rows carry no index or coefficient slices:
// their geometry is the grid's, so a full constraint set is O(I+J) words
// instead of O(nnz).
type GroupRow struct {
	// Kind selects the group shape.
	Kind GroupKind
	// Index is the user j (GroupUserSum) or cloud row i (GroupCloudSumNeg)
	// of the grid.
	Index int
	// RHS is the row's right-hand side b_k.
	RHS float64
}

// Groups is a structured constraint set over a cloud-major CSR grid of I
// cloud rows and J users: cloud row i's variables occupy
// x[RowPtr[i]:RowPtr[i+1]], packed variable k belonging to user Cols[k].
// The k-th row of Rows owns the k-th dual multiplier in Result.Duals.
// Rows must not be mutated during a Solve.
//
// Every program of the paper is such a grid. The per-slot P2 over all
// pairs is the full grid (RowPtr[i] = i·J, Cols repeating 0…J−1); the
// candidate-set, incremental and shard programs keep a subset of it — a
// pruned pair simply contributes nothing to any sum, so the dual layout is
// the full grid's and multipliers warm-start across layouts; the offline
// program over T slots is T·I cloud rows over T·J users, slot-major.
type Groups struct {
	// I and J are the grid's cloud rows and users.
	I, J int
	// Rows are the structured rows in dual order.
	Rows []GroupRow

	// RowPtr and Cols are the grid (CSR): len(RowPtr) = I+1, RowPtr[0] = 0,
	// nondecreasing, Problem.N = RowPtr[I] = len(Cols), and Cols[k] in
	// [0, J). Within each cloud row the users must be in the storage order
	// the caller packs x in; every user total accumulates in ascending
	// cloud-row order whatever that order is.
	RowPtr []int
	Cols   []int

	// hasUser is set during validation; addGrad skips the user
	// multipliers when no demand row is present.
	hasUser bool
}

// NumRows returns the number of structured rows (the dual dimension).
func (g *Groups) NumRows() int { return len(g.Rows) }

// validate checks the geometry against n variables and caches the
// kind-presence flag. It indexes no slice before checking its length.
func (g *Groups) validate(n int) error {
	if g.I <= 0 || g.J <= 0 {
		return errf("groups shape I=%d J=%d must be positive", g.I, g.J)
	}
	if len(g.RowPtr) != g.I+1 {
		return errf("groups RowPtr len=%d, want %d", len(g.RowPtr), g.I+1)
	}
	if g.RowPtr[0] != 0 {
		return errf("groups RowPtr first=%d, want 0", g.RowPtr[0])
	}
	for i := 0; i < g.I; i++ {
		if g.RowPtr[i+1] < g.RowPtr[i] {
			return errf("groups RowPtr decreases at cloud %d", i)
		}
	}
	if g.RowPtr[g.I] != n || len(g.Cols) != n {
		return errf("groups cover %d variables (len(Cols)=%d), problem has %d",
			g.RowPtr[g.I], len(g.Cols), n)
	}
	for k, j := range g.Cols {
		if j < 0 || j >= g.J {
			return errf("groups Cols[%d]=%d out of [0,%d)", k, j, g.J)
		}
	}
	g.hasUser = false
	for k, r := range g.Rows {
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

// groupScratch holds the per-evaluation aggregates of the structured
// kernel, sized once per workspace.
type groupScratch struct {
	cloudTot []float64 // per cloud row: row sum
	userTot  []float64 // per user: column sum
	du       []float64 // per user: summed demand multipliers
	dcap     []float64 // per cloud row: summed capacity multipliers
}

func (sc *groupScratch) ensure(g *Groups) {
	if cap(sc.cloudTot) < g.I {
		sc.cloudTot = make([]float64, g.I)
		sc.dcap = make([]float64, g.I)
	}
	sc.cloudTot, sc.dcap = sc.cloudTot[:g.I], sc.dcap[:g.I]
	if cap(sc.userTot) < g.J {
		sc.userTot = make([]float64, g.J)
		sc.du = make([]float64, g.J)
	}
	sc.userTot, sc.du = sc.userTot[:g.J], sc.du[:g.J]
}

// axInto writes every row activity A_k·x into ax from once-per-call
// totals: O(nnz) plus O(1) per row. The cloud and user totals read the
// same variables, so one sweep per cloud row fills both; each user total
// accumulates its column in ascending cloud-row order.
func (g *Groups) axInto(x, ax []float64, sc *groupScratch) {
	ut := sc.userTot
	clear(ut)
	for r := 0; r < g.I; r++ {
		lo, hi := g.RowPtr[r], g.RowPtr[r+1]
		cols, row := g.Cols[lo:hi], x[lo:hi]
		row = row[:len(cols)]
		s := 0.0
		for k, j := range cols {
			v := row[k]
			s += v
			ut[j] += v
		}
		sc.cloudTot[r] = s
	}
	for k, r := range g.Rows {
		if r.Kind == GroupUserSum {
			ax[k] = ut[r.Index]
		} else {
			ax[k] = -sc.cloudTot[r.Index]
		}
	}
}

// addGrad writes grad = src − Σ_k mult[k]·A_k in one fused O(nnz) pass:
// packed variable k of cloud row i receives src[k] + dcap[i] − du[Cols[k]].
// src may be grad itself.
func (g *Groups) addGrad(mult, src, grad []float64, sc *groupScratch) {
	clear(sc.du)
	clear(sc.dcap)
	for k, r := range g.Rows {
		m := mult[k]
		if m == 0 {
			continue
		}
		if r.Kind == GroupUserSum {
			sc.du[r.Index] += m
		} else {
			sc.dcap[r.Index] += m
		}
	}
	// Each case below is the operation an in-place update would make, so
	// src = grad and src ≠ grad give the same bits.
	du := sc.du
	for r := 0; r < g.I; r++ {
		rowAdd := sc.dcap[r]
		cols := g.Cols[g.RowPtr[r]:g.RowPtr[r+1]]
		gi := grad[g.RowPtr[r]:g.RowPtr[r+1]]
		si := src[g.RowPtr[r]:g.RowPtr[r+1]]
		gi, si = gi[:len(cols)], si[:len(cols)]
		switch {
		case g.hasUser && rowAdd == 0:
			for k, j := range cols {
				gi[k] = si[k] - du[j]
			}
		case g.hasUser:
			for k, j := range cols {
				gi[k] = si[k] + (rowAdd - du[j])
			}
		case rowAdd != 0:
			for k, s := range si {
				gi[k] = s + rowAdd
			}
		default:
			copy(gi, si)
		}
	}
}
