package model

import (
	"slices"
	"sort"
)

// This file defines the ragged candidate-set index used by the sparse
// (candidate-set) solving layer of the online algorithm. The per-slot
// program P2 is posed over the full I×J allocation grid, but its cost
// geometry — service-quality delay d(l_{j,t}, i) plus migration
// penalties — concentrates each user's mass on a handful of clouds near
// its attachment point. A CandidateSet names, for every user j, the
// subset K_j ⊆ I of clouds the solver keeps as variables; everything
// outside K_j is pinned at zero and certified optimal afterwards through
// the dual multipliers (see internal/core/sparse.go).

// CandidateSet is a ragged subset of an I×J allocation grid in
// cloud-major CSR form: the variables of cloud i occupy positions
// RowPtr[i]..RowPtr[i+1] of the packed vector, and Cols[k] is the user
// served by packed variable k. Users appear in ascending order within
// each cloud row, so a packed vector enumerates the grid in the same
// (i, j) order as the dense row-major layout with the pruned pairs
// removed.
type CandidateSet struct {
	I, J   int
	RowPtr []int // len I+1, nondecreasing, RowPtr[0] = 0
	Cols   []int // len NNZ, user of each packed variable
}

// NNZ returns the number of packed variables Σ_j |K_j|.
func (c *CandidateSet) NNZ() int { return len(c.Cols) }

// NearestClouds returns, for every cloud a, the min(k, I) clouds with the
// smallest delay[a][i], ties broken toward the lower cloud index, listed
// in ascending index order. Row a always contains a itself: its delay is
// the zero diagonal, and when zero-delay ties with lower indices would
// crowd it out of the top k, the farthest selected cloud is displaced to
// keep the documented invariant. Values of k outside [1, I] are clamped.
// The attachment cloud of a user changes per slot but the delay matrix
// does not, so callers compute this table once per instance and look rows
// up by attachment.
func NearestClouds(delay [][]float64, k int) [][]int {
	nI := len(delay)
	if k > nI {
		k = nI
	}
	if k < 1 {
		k = 1
	}
	order := make([]int, nI)
	out := make([][]int, nI)
	for a := 0; a < nI; a++ {
		for i := range order {
			order[i] = i
		}
		row := delay[a]
		sort.SliceStable(order, func(x, y int) bool {
			if row[order[x]] != row[order[y]] {
				return row[order[x]] < row[order[y]]
			}
			return order[x] < order[y]
		})
		sel := append([]int(nil), order[:k]...)
		hasSelf := false
		for _, i := range sel {
			if i == a {
				hasSelf = true
				break
			}
		}
		if !hasSelf {
			// Zero-delay ties with lower indices filled the row; the last
			// entry of sel is the farthest (worst) pick, so it yields.
			sel[len(sel)-1] = a
		}
		sort.Ints(sel)
		out[a] = sel
	}
	return out
}

// CandidateBuilder accumulates (cloud, user) memberships for one slot and
// emits them as a CandidateSet. Beside the membership bitmap it lists the
// users a pair was added for since the last Reset, and Reset and Build walk
// only those users' columns: O(I·listed users) each, so a slot that seeds
// fifty movers out of five thousand users pays for fifty (when every user
// is listed that is the whole grid, as it must be). All buffers are reused
// across Reset cycles, so the steady state allocates nothing; membership
// adds are idempotent. A builder must not be shared between goroutines.
type CandidateBuilder struct {
	nI, nJ int
	member []bool // I×J row-major membership bitmap
	// users holds each user with a member pair once, listed[j] says j is
	// on it, and sorted that it is ascending — adds arrive in any order
	// (a gate re-admission names a user below the movers seeded before
	// it), and Build emits ascending users, so it sorts first when needed.
	users  []int
	listed []bool
	sorted bool
}

// NewCandidateBuilder returns a builder for an I×J grid.
func NewCandidateBuilder(I, J int) *CandidateBuilder {
	return &CandidateBuilder{
		nI:     I,
		nJ:     J,
		member: make([]bool, I*J),
		listed: make([]bool, J),
		sorted: true,
	}
}

// Reset clears every membership.
func (b *CandidateBuilder) Reset() {
	for i := 0; i < b.nI; i++ {
		row := b.member[i*b.nJ : (i+1)*b.nJ]
		for _, j := range b.users {
			row[j] = false
		}
	}
	for _, j := range b.users {
		b.listed[j] = false
	}
	b.users, b.sorted = b.users[:0], true
}

// list records that user j has a member pair.
func (b *CandidateBuilder) list(j int) {
	if b.listed[j] {
		return
	}
	b.listed[j] = true
	if n := len(b.users); n > 0 && j < b.users[n-1] {
		b.sorted = false
	}
	b.users = append(b.users, j)
}

// Add marks (cloud i, user j) as a candidate.
func (b *CandidateBuilder) Add(i, j int) {
	b.member[i*b.nJ+j] = true
	b.list(j)
}

// Contains reports whether (cloud i, user j) is currently a candidate.
func (b *CandidateBuilder) Contains(i, j int) bool { return b.member[i*b.nJ+j] }

// AddUserSet marks every cloud of the slice as a candidate for user j.
func (b *CandidateBuilder) AddUserSet(j int, clouds []int) {
	for _, i := range clouds {
		b.member[i*b.nJ+j] = true
	}
	b.list(j)
}

// Build emits the current memberships into dst, reusing dst's slices when
// they have capacity. The builder's memberships are retained, so callers
// can Add more pairs (the expansion loop of the certified solver) and
// Build again.
func (b *CandidateBuilder) Build(dst *CandidateSet) {
	if !b.sorted {
		slices.Sort(b.users)
		b.sorted = true
	}
	nI, nJ := b.nI, b.nJ
	dst.I, dst.J = nI, nJ
	if cap(dst.RowPtr) < nI+1 {
		dst.RowPtr = make([]int, nI+1)
	}
	dst.RowPtr = dst.RowPtr[:nI+1]
	cols := dst.Cols[:0]
	for i := 0; i < nI; i++ {
		dst.RowPtr[i] = len(cols)
		row := b.member[i*nJ : (i+1)*nJ]
		for _, j := range b.users {
			if row[j] {
				cols = append(cols, j)
			}
		}
	}
	dst.RowPtr[nI] = len(cols)
	dst.Cols = cols
}
