package core

import (
	"math"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
)

// p2Objective is the one evaluator of P2's objective and gradient. Its
// variables live in a cloud-major CSR layout: cloud i's variables occupy
// x[rowPtr[i]:rowPtr[i+1]], with the per-variable constants (static
// coefficient, previous decision, migration factor) packed alongside.
// Every solve path is this type under a different layout:
//
//   - the dense layout (rowPtr[i] = i·J, no gather) holds the slot's data
//     every other layout gathers from, and is evaluated only by the tests
//     (newP2Objective);
//   - a ragged candidate layout over all users — every pair by default,
//     each user's nearest clouds with Options.Candidates — or over a
//     slot's active users only, is the single program;
//   - a ragged layout over one shard's column range — gathered locally or
//     received as a shardrpc.BlockSpec — is a shard block.
//
// The static and migration terms of a kept pair are the same whatever the
// layout; a pruned pair contributes exactly nothing, which is its true
// contribution at x = 0 because carryover pairs are never pruned. The
// only variation is the per-cloud total term, selected by which fields
// are bound: the reconfiguration entropy on X_i (+ the flow totOff_i of
// users frozen outside the program) for a single program, or the
// consensus penalty (ρ/2)(X_i − target_i)² once a shard block's Solve has
// set target.
//
// Eval runs on the caller's goroutine and adds the cloud rows' values in
// row order.
type p2Objective struct {
	nI, nJ int   // clouds, and users (columns) of the layout
	rowPtr []int // len nI+1

	// coef holds the weighted static coefficients ā_k the layout's Eval
	// reads: packed by gather on a ragged layout; on the dense layout a
	// grid that bindStatic writes, allocated only by the reference
	// evaluator (newP2Objective). A run's dense slot data leaves it nil and
	// is read as wa_i + sq_ij where a coefficient is needed.
	coef  []float64
	prev  []float64 // x'_{ij}
	mgFac []float64 // wMg·b_i/τ_ij

	// The dense layout's two parts of ā_{ij,t}, bit for bit
	// wa[i] + sq[i·J+j]: wa[i] = WOp·a_{i,t}, rewritten every slot, and
	// sq[i·J+j] = WSq·d(sqAttach[j], i)/λ_j, the service-quality term, kept
	// per pair across slots with the attachment it was computed for
	// (bindStatic).
	wa       []float64
	sq       []float64
	sqAttach []int

	// Entropy total term: rcFac_i·((X_i+ε₁)ln((X_i+ε₁)/(X'_i+ε₁)) − X_i)
	// with X_i the row sum plus totOff_i (nil: no frozen flow). Ragged
	// single programs alias the dense objective's rcFac and prevTot.
	rcFac   []float64 // wRc·c_i/η_i per cloud
	prevTot []float64 // X'_i
	totOff  []float64
	// Consensus total term, in force while target is non-nil.
	rho    float64
	target []float64

	eps1, eps2 float64

	// Fast-math tier (Options.FastMath): fast selects the batch-kernel
	// evaluation path, invDen holds the reciprocals 1/(x'_{ij}+ε₂) and
	// ratio is the row-sliced log scratch. prepare sizes whichever the
	// tier uses.
	fast   bool
	invDen []float64
	ratio  []float64

	// valueGrad receives the gradient of an Eval asked for a value alone.
	valueGrad []float64
}

var _ alm.Curvature = (*p2Objective)(nil)

// newPackedObjective returns an objective awaiting a layout (gather, or
// the fields of a BlockSpec followed by prepare).
func newPackedObjective(nI int, eps1, eps2 float64, fast bool) p2Objective {
	return p2Objective{nI: nI, eps1: eps1, eps2: eps2, fast: fast}
}

// newP2ObjectiveConst builds the dense-layout objective and computes
// the slot-independent constants of P2's objective — the entropy scale
// factors η_i and τ_ij of the paper — once per (instance, ε) pair. bind
// attaches the per-slot data. Evaluating the objective itself additionally
// needs the dense coefficient grid, which only the caller that does so
// allocates (see coef).
func newP2ObjectiveConst(in *model.Instance, eps1, eps2 float64, fast bool) *p2Objective {
	o := newPackedObjective(in.I, eps1, eps2, fast)
	o.nJ = in.J
	o.rowPtr = make([]int, in.I+1)
	o.mgFac = make([]float64, in.I*in.J)
	o.wa = make([]float64, in.I)
	o.sq = make([]float64, in.I*in.J)
	o.sqAttach = make([]int, in.J)
	for j := range o.sqAttach {
		o.sqAttach[j] = -1 // no attachment: the first bind fills every column
	}
	o.rcFac = make([]float64, in.I)
	o.prevTot = make([]float64, in.I)
	tau := make([]float64, in.J)
	for j := range tau {
		tau[j] = math.Log1p(in.Workload[j] / eps2)
	}
	for i := 0; i < in.I; i++ {
		o.rowPtr[i+1] = (i + 1) * in.J
		eta := math.Log1p(in.Capacity[i] / eps1)
		o.rcFac[i] = in.WRc * in.ReconfPrice[i] / eta
		b := in.WMg * (in.MigOutPrice[i] + in.MigInPrice[i])
		for j, tj := range tau {
			o.mgFac[i*in.J+j] = b / tj
		}
	}
	return &o
}

// newP2Objective is the dense-layout objective bound to slot t and ready
// to evaluate: the reference evaluator of P2 over every pair.
func newP2Objective(in *model.Instance, t int, prev model.Alloc, eps1, eps2 float64) *p2Objective {
	o := newP2ObjectiveConst(in, eps1, eps2, false)
	o.coef = make([]float64, in.I*in.J)
	o.bind(in, t, prev)
	o.prepare()
	return o
}

// bind points the dense-layout objective at slot t's prices and the
// previous decision: the dense slot data every layout of the slot reads.
// Evaluating it directly additionally needs prepare.
func (o *p2Objective) bind(in *model.Instance, t int, prev model.Alloc) {
	o.bindStatic(in, t)
	o.carry(prev)
}

// bindStatic binds slot t's static coefficients
// WOp·a_{i,t} + WSq·d(l_{j,t},i)/λ_j — Instance.StaticCoeffInto's values,
// bit for bit, as wa[i] + sq[i·J+j] — without its I·J divisions: the
// service-quality term of a pair moves only when its user re-attaches, so
// sq keeps it per pair with the attachment it was computed for, and a bind
// recomputes the columns whose attachment differs (all of them the first
// time) and the I price terms. Binding a slot twice, as the retry of a
// cancelled Step does, finds nothing to recompute. Where the dense grid
// exists (the reference evaluator) the coefficients are then one
// streaming add over it.
func (o *p2Objective) bindStatic(in *model.Instance, t int) {
	nJ := o.nJ
	attachSQ(in, t, o.sq, o.sqAttach)
	for i, a := range in.OpPrice[t] {
		o.wa[i] = in.WOp * a
	}
	if o.coef == nil {
		return
	}
	for i, wa := range o.wa {
		coef, sq := o.coef[i*nJ:(i+1)*nJ], o.sq[i*nJ:(i+1)*nJ]
		for j, q := range sq {
			coef[j] = wa + q
		}
	}
}

// attachSQ brings sq, the row-major I×J service-quality terms
// WSq·d(at[j], i)/λ_j, level with slot t's attachments: it recomputes the
// columns whose recorded attachment at[j] differs (every column where it is
// −1) and records the new one.
func attachSQ(in *model.Instance, t int, sq []float64, at []int) {
	for j, a := range in.Attach[t] {
		if at[j] == a {
			continue
		}
		at[j] = a
		for i, d := range in.InterDelay[a] {
			sq[i*in.J+j] = in.WSq * d / in.Workload[j]
		}
	}
}

// carry makes prev the decision the slot departs from, with its per-cloud
// totals X'_i.
func (o *p2Objective) carry(prev model.Alloc) {
	o.prev = prev.X
	prev.CloudTotalsInto(o.prevTot)
}

// prepare readies the objective for evaluation after its layout and
// packed constants changed. Only the fast tier keeps anything that depends
// on them: its scratch, sized to the variable count, and the reciprocals
// of x' (one divide per variable here instead of one per element per
// evaluation).
func (o *p2Objective) prepare() {
	if !o.fast {
		return
	}
	n := len(o.prev)
	o.invDen = growFloats(o.invDen, n)
	o.ratio = growFloats(o.ratio, n)
	for k, p := range o.prev {
		o.invDen[k] = 1 / (p + o.eps2)
	}
}

// p2Program is a p2Objective together with what alm.Solve needs around
// it: the structured rows over the same layout and the packed warm iterate.
type p2Program struct {
	obj    p2Objective
	groups alm.Groups
	warm   []float64 // packed iterate: warm start in
}

// gather lays the program out over the candidate set cs, whose users are
// columns [colLo, colLo+cs.J) of the dense grid, packing the slot's
// coefficients, previous decision, and migration factors from the dense
// slot data d and the warm iterate from the dense image img. It is the
// one bind of every ragged path: the whole grid (colLo = 0) for the
// single program, a shard's column range for a block.
func (p *p2Program) gather(d *p2Objective, cs *model.CandidateSet, colLo int, img []float64) {
	o := &p.obj
	nnz := cs.NNZ()
	o.nJ, o.rowPtr = cs.J, cs.RowPtr
	o.coef = growFloats(o.coef, nnz)
	o.prev = growFloats(o.prev, nnz)
	o.mgFac = growFloats(o.mgFac, nnz)
	p.warm = growFloats(p.warm, nnz)
	for i := 0; i < o.nI; i++ {
		base, wa := i*d.nJ+colLo, d.wa[i]
		for k := cs.RowPtr[i]; k < cs.RowPtr[i+1]; k++ {
			src := base + cs.Cols[k]
			o.coef[k] = wa + d.sq[src]
			o.prev[k] = d.prev[src]
			o.mgFac[k] = d.mgFac[src]
			p.warm[k] = img[src]
		}
	}
	o.prepare()
	p.groups.RowPtr, p.groups.Cols = cs.RowPtr, cs.Cols
}

// scatterInto writes the point x, packed over the layout cs the program
// was gathered on, into the dense image img at columns [colLo, colLo+cs.J);
// entries outside the layout are left alone.
func scatterInto(img []float64, stride, colLo int, cs *model.CandidateSet, x []float64) {
	for i := 0; i < cs.I; i++ {
		base := i*stride + colLo
		for k := cs.RowPtr[i]; k < cs.RowPtr[i+1]; k++ {
			img[base+cs.Cols[k]] = x[k]
		}
	}
}

// addTotals adds the per-cloud totals of the packed point x onto tot,
// element by element in layout order.
func (o *p2Objective) addTotals(tot, x []float64) {
	for i := 0; i < o.nI; i++ {
		s := tot[i]
		for _, v := range x[o.rowPtr[i]:o.rowPtr[i+1]] {
			s += v
		}
		tot[i] = s
	}
}

// Eval implements fista.Objective. Asked for a value alone (grad nil) it
// evaluates through the gradient kernels into a scratch buffer: no solve
// does that (a Newton solve evaluates with a gradient only), so value-only
// loops would serve the tests alone.
func (o *p2Objective) Eval(x, grad []float64) float64 {
	if grad == nil {
		o.valueGrad = growFloats(o.valueGrad, len(x))
		grad = o.valueGrad
	}
	f := 0.0
	for i := 0; i < o.nI; i++ {
		f += o.evalRow(i, x, grad)
	}
	return f
}

// totalTerm returns cloud i's total term and its derivative at row sum s.
func (o *p2Objective) totalTerm(i int, s float64) (val, deriv float64) {
	if o.target != nil {
		d := s - o.target[i]
		return 0.5 * o.rho * d * d, o.rho * d
	}
	if o.totOff != nil {
		s += o.totOff[i]
	}
	lg := math.Log((s + o.eps1) / (o.prevTot[i] + o.eps1))
	return o.rcFac[i] * ((s+o.eps1)*lg - s), o.rcFac[i] * lg
}

// Curv implements alm.Curvature. P2's Hessian is the migration entropy's
// diagonal mgFac_k/(x_k+ε₂) plus, per cloud, the total term's second
// derivative on the row's indicator: rcFac_i/(X_i+totOff_i+ε₁) for the
// reconfiguration entropy, ρ for a shard block's consensus penalty. The
// static term is linear. Both tiers evaluate the same expression: FastMath
// approximates logarithms, and the curvature has none.
func (o *p2Objective) Curv(x, diag, cloud []float64) {
	for i := range cloud {
		lo, hi := o.rowPtr[i], o.rowPtr[i+1]
		row, mgFac, d := x[lo:hi], o.mgFac[lo:hi], diag[lo:hi]
		s := 0.0
		for k, v := range row {
			s += v
			d[k] = mgFac[k] / (v + o.eps2)
		}
		if o.target != nil {
			cloud[i] = o.rho
			continue
		}
		if o.totOff != nil {
			s += o.totOff[i]
		}
		cloud[i] = o.rcFac[i] / (s + o.eps1)
	}
}

// evalRow computes cloud i's slice of the objective and gradient: the
// total term plus the static and migration terms of the row's kept pairs.
// Rows touch disjoint state. The element loops live in entropy.go, with the
// row slices hoisted for bounds-check elimination.
//
// On the exact tier most variables sit where the iterate equals the
// previous decision (typically both at the zero bound: a user is served
// by few clouds), making the migration ratio exactly 1 and its log
// exactly 0 — skipping the division and math.Log there is bitwise
// identical and removes the transcendental cost from the pairs that carry
// no flow. The fast tier is one fused sum+gather pass, one in-place
// batch log over the row, and one accumulation pass; see entropy.go for
// its accuracy contract.
func (o *p2Objective) evalRow(i int, x, grad []float64) float64 {
	lo, hi := o.rowPtr[i], o.rowPtr[i+1]
	row := x[lo:hi]
	coef := o.coef[lo:hi]
	mgFac := o.mgFac[lo:hi]
	if !o.fast {
		s := 0.0
		for _, v := range row {
			s += v
		}
		// The total term seeds the accumulator so the addition order is
		// the same on every path.
		tv, tg := o.totalTerm(i, s)
		return entropyRowGrad(row, coef, o.prev[lo:hi], mgFac, grad[lo:hi], o.eps2, tv, tg)
	}
	ratio := o.ratio[lo:hi]
	s := entropyRatioPass(row, o.invDen[lo:hi], ratio, o.eps2)
	logBatch(ratio, ratio)
	tv, tg := o.totalTerm(i, s)
	return entropyFastGrad(row, coef, mgFac, ratio, grad[lo:hi], o.eps2, tv, tg)
}

// growFloats returns s resized to n, reusing capacity and otherwise
// reallocating with headroom so expansion rounds settle quickly.
func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]float64, n, n+n/2)
	copy(out, s[:cap(s)])
	return out
}
