// Package model defines the edge-cloud system model of the paper: the
// time-slotted instance data (clouds, users, prices, mobility), the
// allocation variables x_{i,j,t}, and the four cost components
// (operation, service quality, reconfiguration, migration) making up the
// objectives P0 and P1 of §II.
package model

import (
	"errors"
	"fmt"
	"math"
)

// Instance is one complete problem instance over a horizon of T slots.
// All slices are indexed as documented; time-major fields have length T.
type Instance struct {
	I int // number of edge clouds
	J int // number of users
	T int // number of time slots

	// Capacity is C_i, the resource capacity of each cloud (len I).
	Capacity []float64
	// InterDelay is d(i,i'), the inter-cloud network delay (I×I, zero
	// diagonal, symmetric in all our scenarios although not required).
	InterDelay [][]float64
	// Workload is λ_j, each user's total workload (len J, all > 0).
	Workload []float64

	// OpPrice is a_{i,t}: OpPrice[t][i] (T×I), arbitrary over time.
	OpPrice [][]float64
	// ReconfPrice is c_i, the unit cost of increasing a cloud's total
	// allocation (len I).
	ReconfPrice []float64
	// MigOutPrice and MigInPrice are b_i^out and b_i^in, the unit
	// migration costs at the outgoing and incoming end (len I each).
	MigOutPrice []float64
	MigInPrice  []float64

	// Attach is l_{j,t}: Attach[t][j] is the cloud the user connects to
	// (T×J, values in [0, I)).
	Attach [][]int
	// AccessDelay is d(j, l_{j,t}): AccessDelay[t][j] (T×J), the constant
	// part of the service-quality cost.
	AccessDelay [][]float64

	// Weights of the four costs in the total objective. The paper's μ
	// (Fig 4) is the common dynamic weight WRc = WMg with WOp = WSq = 1.
	WOp, WSq, WRc, WMg float64

	// Init is the allocation in force before the first slot (the paper's
	// x_{i,j,0}). Nil means the zero allocation of the formal model, in
	// which case the first slot pays full reconfiguration and incoming
	// migration for its placement. The Fig-1 examples set Init to the
	// natural starting placement so that their literal cost numbers are
	// reproduced.
	Init *Alloc
}

// InitialAlloc returns a copy of the pre-horizon allocation x_{·,·,0}.
func (in *Instance) InitialAlloc() Alloc {
	if in.Init == nil {
		return NewAlloc(in.I, in.J)
	}
	return in.Init.Clone()
}

// ErrInvalidInstance reports malformed instance data.
var ErrInvalidInstance = errors.New("model: invalid instance")

// Validate checks dimensions and value ranges. Algorithms assume a
// validated instance.
func (in *Instance) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidInstance, fmt.Sprintf(format, args...))
	}
	if in.I <= 0 || in.J <= 0 || in.T <= 0 {
		return fail("dimensions I=%d J=%d T=%d must be positive", in.I, in.J, in.T)
	}
	if in.WOp < 0 || in.WSq < 0 || in.WRc < 0 || in.WMg < 0 {
		return fail("weights must be nonnegative")
	}
	if len(in.Capacity) != in.I {
		return fail("len(Capacity)=%d, want I=%d", len(in.Capacity), in.I)
	}
	for i, c := range in.Capacity {
		if c <= 0 {
			return fail("Capacity[%d]=%g must be positive", i, c)
		}
	}
	if len(in.InterDelay) != in.I {
		return fail("len(InterDelay)=%d, want I=%d", len(in.InterDelay), in.I)
	}
	for i, row := range in.InterDelay {
		if len(row) != in.I {
			return fail("len(InterDelay[%d])=%d, want I=%d", i, len(row), in.I)
		}
		if row[i] != 0 {
			return fail("InterDelay[%d][%d]=%g, want 0 diagonal", i, i, row[i])
		}
		for k, d := range row {
			if d < 0 {
				return fail("InterDelay[%d][%d]=%g negative", i, k, d)
			}
		}
	}
	if len(in.Workload) != in.J {
		return fail("len(Workload)=%d, want J=%d", len(in.Workload), in.J)
	}
	for j, l := range in.Workload {
		if l <= 0 {
			return fail("Workload[%d]=%g must be positive", j, l)
		}
	}
	for name, s := range map[string][]float64{
		"ReconfPrice": in.ReconfPrice, "MigOutPrice": in.MigOutPrice, "MigInPrice": in.MigInPrice,
	} {
		if len(s) != in.I {
			return fail("len(%s)=%d, want I=%d", name, len(s), in.I)
		}
		for i, v := range s {
			if v < 0 {
				return fail("%s[%d]=%g negative", name, i, v)
			}
		}
	}
	if len(in.OpPrice) != in.T || len(in.Attach) != in.T || len(in.AccessDelay) != in.T {
		return fail("time-major lengths OpPrice=%d Attach=%d AccessDelay=%d, want T=%d",
			len(in.OpPrice), len(in.Attach), len(in.AccessDelay), in.T)
	}
	for t := 0; t < in.T; t++ {
		if len(in.OpPrice[t]) != in.I {
			return fail("len(OpPrice[%d])=%d, want I=%d", t, len(in.OpPrice[t]), in.I)
		}
		for i, a := range in.OpPrice[t] {
			if a < 0 {
				return fail("OpPrice[%d][%d]=%g negative", t, i, a)
			}
		}
		if len(in.Attach[t]) != in.J || len(in.AccessDelay[t]) != in.J {
			return fail("slot %d: len(Attach)=%d len(AccessDelay)=%d, want J=%d",
				t, len(in.Attach[t]), len(in.AccessDelay[t]), in.J)
		}
		for j, l := range in.Attach[t] {
			if l < 0 || l >= in.I {
				return fail("Attach[%d][%d]=%d out of [0,%d)", t, j, l, in.I)
			}
			if in.AccessDelay[t][j] < 0 {
				return fail("AccessDelay[%d][%d]=%g negative", t, j, in.AccessDelay[t][j])
			}
		}
	}
	// Reject non-finite numeric data anywhere: NaN and ±Inf slip through
	// the sign checks above (every comparison against NaN is false), yet
	// they poison every downstream solve and cannot be JSON-encoded.
	for _, f := range []struct {
		name string
		vals []float64
	}{
		{"Weights", []float64{in.WOp, in.WSq, in.WRc, in.WMg}},
		{"Capacity", in.Capacity},
		{"Workload", in.Workload},
		{"ReconfPrice", in.ReconfPrice},
		{"MigOutPrice", in.MigOutPrice},
		{"MigInPrice", in.MigInPrice},
	} {
		if k := firstNonFinite(f.vals); k >= 0 {
			return fail("%s[%d]=%g not finite", f.name, k, f.vals[k])
		}
	}
	for i, row := range in.InterDelay {
		if k := firstNonFinite(row); k >= 0 {
			return fail("InterDelay[%d][%d]=%g not finite", i, k, row[k])
		}
	}
	for t := 0; t < in.T; t++ {
		if k := firstNonFinite(in.OpPrice[t]); k >= 0 {
			return fail("OpPrice[%d][%d]=%g not finite", t, k, in.OpPrice[t][k])
		}
		if k := firstNonFinite(in.AccessDelay[t]); k >= 0 {
			return fail("AccessDelay[%d][%d]=%g not finite", t, k, in.AccessDelay[t][k])
		}
	}
	// The pre-horizon allocation, when present, must have the instance's
	// shape and be a valid (nonnegative, finite) allocation.
	if in.Init != nil {
		if in.Init.I != in.I || in.Init.J != in.J || len(in.Init.X) != in.I*in.J {
			return fail("Init allocation is %dx%d (%d entries), want %dx%d",
				in.Init.I, in.Init.J, len(in.Init.X), in.I, in.J)
		}
		for k, v := range in.Init.X {
			if !(v >= 0) || math.IsInf(v, 0) {
				return fail("Init.X[%d]=%g must be finite and nonnegative", k, v)
			}
		}
	}
	// Capacity must admit a feasible allocation in every slot.
	total := 0.0
	for _, l := range in.Workload {
		total += l
	}
	capSum := 0.0
	for _, c := range in.Capacity {
		capSum += c
	}
	if capSum < total {
		return fail("total capacity %g below total workload %g", capSum, total)
	}
	return nil
}

// firstNonFinite returns the index of the first NaN or ±Inf entry, or -1.
func firstNonFinite(vals []float64) int {
	for k, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return k
		}
	}
	return -1
}

// TotalWorkload returns Λ = Σ_j λ_j.
func (in *Instance) TotalWorkload() float64 {
	s := 0.0
	for _, l := range in.Workload {
		s += l
	}
	return s
}

// Sigma returns σ = Σ_i b_i^out·C_i, the additive constant of the
// gap-preserving transformation P0 → P1 (Lemma 1).
func (in *Instance) Sigma() float64 {
	s := 0.0
	for i := range in.Capacity {
		s += in.MigOutPrice[i] * in.Capacity[i]
	}
	return s
}

// Alloc is one slot's allocation matrix x[i][j], stored row-major.
type Alloc struct {
	I, J int
	X    []float64 // len I*J, X[i*J+j] = x_{i,j}
}

// NewAlloc returns a zero allocation of the given shape.
func NewAlloc(i, j int) Alloc {
	return Alloc{I: i, J: j, X: make([]float64, i*j)}
}

// At returns x_{i,j}.
func (a Alloc) At(i, j int) float64 { return a.X[i*a.J+j] }

// Set assigns x_{i,j}.
func (a Alloc) Set(i, j int, v float64) { a.X[i*a.J+j] = v }

// Clone returns a deep copy.
func (a Alloc) Clone() Alloc {
	return Alloc{I: a.I, J: a.J, X: append([]float64(nil), a.X...)}
}

// CloudTotals returns x_i = Σ_j x_{i,j} for every cloud.
func (a Alloc) CloudTotals() []float64 {
	tot := make([]float64, a.I)
	a.CloudTotalsInto(tot)
	return tot
}

// CloudTotalsInto writes Σ_j x_{i,j} for every cloud into dst, which must
// have length I. It exists so per-slot hot paths can reuse one buffer.
// Every total is accumulated left to right from zero. One such sum is a
// chain of dependent additions that leaves the adder idle three cycles in
// four, so four rows advance abreast; each chain keeps its own order, and
// so its bits.
func (a Alloc) CloudTotalsInto(dst []float64) {
	n, i := a.J, 0
	for ; i+4 <= a.I; i += 4 {
		r0, r1, r2, r3 := a.X[i*n:(i+1)*n], a.X[(i+1)*n:(i+2)*n], a.X[(i+2)*n:(i+3)*n], a.X[(i+3)*n:(i+4)*n]
		var s0, s1, s2, s3 float64
		for j, v := range r0 {
			s0 += v
			s1 += r1[j]
			s2 += r2[j]
			s3 += r3[j]
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < a.I; i++ {
		s := 0.0
		for _, v := range a.X[i*n : (i+1)*n] {
			s += v
		}
		dst[i] = s
	}
}

// UserTotals returns Σ_i x_{i,j} for every user.
func (a Alloc) UserTotals() []float64 {
	tot := make([]float64, a.J)
	a.UserTotalsInto(tot)
	return tot
}

// UserTotalsInto writes Σ_i x_{i,j} for every user into dst, which must
// have length J. It exists so per-slot hot paths can reuse one buffer.
func (a Alloc) UserTotalsInto(dst []float64) {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < a.I; i++ {
		row := a.X[i*a.J : (i+1)*a.J]
		for j, v := range row {
			dst[j] += v
		}
	}
}

// Schedule is an allocation for every slot of the horizon.
type Schedule []Alloc

// Walk reads a schedule slot by slot: it calls yield with slot t's
// decision for t = 0, 1, … in order and stops early when yield returns
// false. The decision yielded for slot t−1 stays valid while slot t's is
// yielded, and the last one yielded after the walk returns; none may be
// modified.
type Walk func(yield func(t int, x Alloc) bool)

// Walk is the schedule as a Walk.
func (s Schedule) Walk(yield func(t int, x Alloc) bool) {
	for t, x := range s {
		if !yield(t, x) {
			return
		}
	}
}

// Breakdown is the unweighted value of each cost component.
type Breakdown struct {
	Op, Sq, Rc, Mg float64
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	b.Op += o.Op
	b.Sq += o.Sq
	b.Rc += o.Rc
	b.Mg += o.Mg
}

// Static returns the static part Op + Sq (unweighted).
func (b Breakdown) Static() float64 { return b.Op + b.Sq }

// Dynamic returns the dynamic part Rc + Mg (unweighted).
func (b Breakdown) Dynamic() float64 { return b.Rc + b.Mg }

// Total applies the instance weights: WOp·Op + WSq·Sq + WRc·Rc + WMg·Mg.
func (in *Instance) Total(b Breakdown) float64 {
	return in.WOp*b.Op + in.WSq*b.Sq + in.WRc*b.Rc + in.WMg*b.Mg
}

// hinge is (x)⁺.
func hinge(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

// SlotStatic returns the unweighted operation and service-quality costs of
// allocation x in slot t.
func (in *Instance) SlotStatic(t int, x Alloc) (op, sq float64) {
	for j := 0; j < in.J; j++ {
		sq += in.AccessDelay[t][j]
	}
	for i := 0; i < in.I; i++ {
		a := in.OpPrice[t][i]
		row := x.X[i*in.J : (i+1)*in.J]
		for j, v := range row {
			op += a * v
			sq += v * in.InterDelay[in.Attach[t][j]][i] / in.Workload[j]
		}
	}
	return op, sq
}

// SlotDynamic returns the unweighted reconfiguration and migration costs
// (P0 form, both directions) of the transition prev → cur. prev may be the
// zero allocation for the first slot (x_{i,j,0} = 0 per the paper).
func (in *Instance) SlotDynamic(prev, cur Alloc) (rc, mg float64) {
	for i := 0; i < in.I; i++ {
		pRow := prev.X[i*in.J : (i+1)*in.J]
		cRow := cur.X[i*in.J : (i+1)*in.J]
		var pTot, cTot, zin, zout float64
		for j := range cRow {
			pTot += pRow[j]
			cTot += cRow[j]
			zin += hinge(cRow[j] - pRow[j])
			zout += hinge(pRow[j] - cRow[j])
		}
		rc += in.ReconfPrice[i] * hinge(cTot-pTot)
		mg += in.MigOutPrice[i]*zout + in.MigInPrice[i]*zin
	}
	return rc, mg
}

// SlotCost returns the unweighted cost breakdown of slot t's transition
// prev → cur in one pass over the two grids: SlotStatic(t, cur) and
// SlotDynamic(prev, cur) bit for bit, every sum accumulated in the order
// those two accumulate it.
func (in *Instance) SlotCost(t int, prev, cur Alloc) Breakdown {
	var op, sq, rc, mg float64
	for _, d := range in.AccessDelay[t] {
		sq += d
	}
	price, attach := in.OpPrice[t], in.Attach[t]
	for i := 0; i < in.I; i++ {
		a := price[i]
		pRow := prev.X[i*in.J : (i+1)*in.J]
		cRow := cur.X[i*in.J : (i+1)*in.J]
		var pTot, cTot, zin, zout float64
		for j, v := range cRow {
			p := pRow[j]
			op += a * v
			sq += v * in.InterDelay[attach[j]][i] / in.Workload[j]
			pTot += p
			cTot += v
			zin += hinge(v - p)
			zout += hinge(p - v)
		}
		rc += in.ReconfPrice[i] * hinge(cTot-pTot)
		mg += in.MigOutPrice[i]*zout + in.MigInPrice[i]*zin
	}
	return Breakdown{Op: op, Sq: sq, Rc: rc, Mg: mg}
}

// SlotDynamicP1 returns the reconfiguration cost and the one-directional
// migration cost of the transformed problem P1, where migration is charged
// only on incoming workload at price b_i = b_i^out + b_i^in.
func (in *Instance) SlotDynamicP1(prev, cur Alloc) (rc, mg float64) {
	for i := 0; i < in.I; i++ {
		pRow := prev.X[i*in.J : (i+1)*in.J]
		cRow := cur.X[i*in.J : (i+1)*in.J]
		var pTot, cTot, zin float64
		for j := range cRow {
			pTot += pRow[j]
			cTot += cRow[j]
			zin += hinge(cRow[j] - pRow[j])
		}
		rc += in.ReconfPrice[i] * hinge(cTot-pTot)
		mg += (in.MigOutPrice[i] + in.MigInPrice[i]) * zin
	}
	return rc, mg
}

// Evaluate computes the unweighted cost breakdown of a full schedule under
// the original objective P0.
func (in *Instance) Evaluate(s Schedule) (Breakdown, error) {
	if len(s) != in.T {
		return Breakdown{}, fmt.Errorf("%w: schedule has %d slots, want %d",
			ErrInvalidInstance, len(s), in.T)
	}
	var b Breakdown
	prev := in.InitialAlloc()
	for t := 0; t < in.T; t++ {
		b.Add(in.SlotCost(t, prev, s[t]))
		prev = s[t]
	}
	return b, nil
}

// EvaluateP1 computes the cost breakdown under the transformed objective
// P1 (Mg holds the one-directional migration cost).
func (in *Instance) EvaluateP1(s Schedule) (Breakdown, error) {
	if len(s) != in.T {
		return Breakdown{}, fmt.Errorf("%w: schedule has %d slots, want %d",
			ErrInvalidInstance, len(s), in.T)
	}
	var b Breakdown
	prev := in.InitialAlloc()
	for t := 0; t < in.T; t++ {
		op, sq := in.SlotStatic(t, s[t])
		rc, mg := in.SlotDynamicP1(prev, s[t])
		b.Add(Breakdown{Op: op, Sq: sq, Rc: rc, Mg: mg})
		prev = s[t]
	}
	return b, nil
}

// CheckFeasible verifies demand, capacity, and nonnegativity of a schedule
// within tolerance tol (absolute, scaled by the constraint magnitude).
func (in *Instance) CheckFeasible(s Schedule, tol float64) error {
	if len(s) != in.T {
		return fmt.Errorf("%w: schedule has %d slots, want %d", ErrInvalidInstance, len(s), in.T)
	}
	for t, x := range s {
		if x.I != in.I || x.J != in.J || len(x.X) != in.I*in.J {
			return fmt.Errorf("%w: slot %d allocation has shape %dx%d, want %dx%d",
				ErrInvalidInstance, t, x.I, x.J, in.I, in.J)
		}
		for k, v := range x.X {
			if v < -tol || math.IsNaN(v) {
				return fmt.Errorf("slot %d: x[%d][%d] = %g negative", t, k/in.J, k%in.J, v)
			}
		}
		for j, served := range x.UserTotals() {
			if served < in.Workload[j]-tol*(1+in.Workload[j]) {
				return fmt.Errorf("slot %d: user %d served %g < demand %g",
					t, j, served, in.Workload[j])
			}
		}
		for i, used := range x.CloudTotals() {
			if used > in.Capacity[i]+tol*(1+in.Capacity[i]) {
				return fmt.Errorf("slot %d: cloud %d load %g > capacity %g",
					t, i, used, in.Capacity[i])
			}
		}
	}
	return nil
}

// Repair clips negative round-off in a solver's slot decision and tops up
// every under-served user's column to its demand, so that downstream
// feasibility checks with tight tolerances pass. The top-up is as large as
// the solve's shortfall: round-off after a converged solve, but a solve cut
// short can leave a user far below demand — core's
// TestCommitRepairsShortSolve commits a MaxOuter = 1 decision up to 44 %
// short before the repair — and then the repair moves real mass and the
// measured costs with it. served is a length-J scratch buffer, so per-slot
// hot paths allocate nothing here.
func (in *Instance) Repair(x Alloc, served []float64) {
	for k, v := range x.X {
		if v < 0 {
			x.X[k] = 0
		}
	}
	x.UserTotalsInto(served)
	for j := 0; j < in.J; j++ {
		if deficit := in.Workload[j] - served[j]; deficit > 0 {
			// Scale the user's column up proportionally; fall back to the
			// cheapest-by-index cloud when the column is all zero.
			if served[j] > 0 {
				f := in.Workload[j] / served[j]
				for i := 0; i < in.I; i++ {
					x.Set(i, j, x.At(i, j)*f)
				}
			} else {
				x.Set(0, j, in.Workload[j])
			}
		}
	}
}

// RepairColumns is Repair for a caller that knows which columns can need
// it: it clips and tops up only the listed users' columns, operation for
// operation as Repair would, and leaves the rest of x unread. Repair is
// idle on a column it has seen serve its demand, so the two agree bit for
// bit when cols holds every user whose column changed since the last
// repair of x's predecessor plus the users that repair returned: a column
// scaled up to its demand can still sum below it in floating point, and
// Repair scales such a column again the next time round. Those users are
// appended to short and returned. cols must not repeat a user; served is
// scratch of at least len(cols).
func (in *Instance) RepairColumns(x Alloc, cols []int, served []float64, short []int) []int {
	served = served[:len(cols)]
	clear(served)
	for i := 0; i < in.I; i++ {
		row := x.X[i*in.J : (i+1)*in.J]
		for p, j := range cols {
			v := row[j]
			if v < 0 {
				v = 0
				row[j] = 0
			}
			served[p] += v
		}
	}
	for p, j := range cols {
		if deficit := in.Workload[j] - served[p]; deficit > 0 {
			if served[p] > 0 {
				f := in.Workload[j] / served[p]
				after := 0.0
				for k := j; k < len(x.X); k += in.J {
					x.X[k] *= f
					after += x.X[k]
				}
				if in.Workload[j]-after > 0 {
					short = append(short, j)
				}
			} else {
				x.Set(0, j, in.Workload[j])
			}
		}
	}
	return short
}

// Window returns a sub-instance covering slots [t0, t0+n) with the given
// allocation as its pre-horizon state. Slice fields are shared with the
// receiver (not copied); callers must not mutate them. Window is the
// building block of lookahead (model-predictive) policies.
func (in *Instance) Window(t0, n int, init Alloc) (*Instance, error) {
	if t0 < 0 || n <= 0 || t0+n > in.T {
		return nil, fmt.Errorf("%w: window [%d,%d) outside horizon %d",
			ErrInvalidInstance, t0, t0+n, in.T)
	}
	w := *in
	w.T = n
	w.OpPrice = in.OpPrice[t0 : t0+n]
	w.Attach = in.Attach[t0 : t0+n]
	w.AccessDelay = in.AccessDelay[t0 : t0+n]
	w.Init = &init
	return &w, nil
}

// StaticCoeff returns the weighted per-unit static cost of placing user
// j's workload on cloud i in slot t:
//
//	WOp·a_{i,t} + WSq·d(l_{j,t}, i)/λ_j,
//
// as a row-major I×J matrix. This is the exact objective of the atomistic
// per-slot subproblems and the linear part of P2.
func (in *Instance) StaticCoeff(t int) []float64 {
	c := make([]float64, in.I*in.J)
	in.StaticCoeffInto(t, c)
	return c
}

// StaticCoeffInto writes the slot-t static coefficients into dst, which
// must have length I·J. It exists so per-slot hot paths can reuse one
// buffer across a horizon.
func (in *Instance) StaticCoeffInto(t int, dst []float64) {
	for i := 0; i < in.I; i++ {
		for j := 0; j < in.J; j++ {
			dst[i*in.J+j] = in.WOp*in.OpPrice[t][i] +
				in.WSq*in.InterDelay[in.Attach[t][j]][i]/in.Workload[j]
		}
	}
}
