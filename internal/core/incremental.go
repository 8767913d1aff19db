package core

import (
	"math"

	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
)

// This file implements event-driven incremental slot solving
// (Options.Incremental). Between consecutive slots typically only a
// fraction of users change attachment while prices drift smoothly, so
// the slot-t optimum differs from the carried decision x' only on the
// affected users' columns, and the incremental tier re-solves those
// alone:
//
//  1. Delta detection. User j is active in slot t when its attachment
//     changed (l_{j,t} ≠ l_{j,t-1}) or there is no committed slot to
//     carry from (t = 0; a restored run carries its last slot). Everyone
//     else starts frozen at x_{·j} = x'_{·j}. Attachment is the only
//     per-user input of P2 that varies with t — the static coefficient
//     ā_{ij,t} = w_op·p_{i,t} + w_sq·d(l_{j,t},i)/λ_j moves per-cloud
//     with prices and per-user only through l_{j,t}, and workloads are
//     slot-independent — so global price drift is handled entirely by
//     the gate in step 3 rather than by the detector.
//
//  2. Reduced solve. The active users solve their ragged candidate
//     program (sparse.go) with the frozen flow folded into the
//     constants: each cloud's capacity RHS drops by the flow its frozen
//     users carry, and the reconfiguration regularizer sees
//     X_i = A_i + F_i through p2Objective.totOff, where A_i is
//     the active (variable) part and F_i the frozen offset. Frozen
//     demand rows are exactly satisfied by construction (x' is
//     post-repair), so they leave the program entirely and the dual
//     dimension shrinks to |active| + I.
//
//  3. Soundness gate. A frozen column is optimal for the full P2 iff it
//     satisfies KKT stationarity under the solved slot's multipliers.
//     At x_{·j} = x'_{·j} the migration gradient vanishes (the ratio is
//     exactly 1), so the reduced gradient of pair (i, j) is
//
//     g_ij = ā_{ij,t} + (ĉ_i/η_i)·ln((X_i+ε₁)/(X'_i+ε₁)) + ν'_i
//
//     (kktBase computes the per-cloud part), and the ≥-demand row admits
//     a dual θ_j ≥ 0 with g_ij = θ_j on the support and g_ij ≥ θ_j off
//     it exactly when every support pair sits at the column minimum
//     min_i g_ij and that minimum is ≥ 0. Complementary slackness asks
//     one thing more: θ_j > 0 only on a tight demand row. A carried
//     column that over-serves, Σ_i x'_ij − λ_j > IncrementalTol·(1+λ_j),
//     must take θ_j = 0, so its support pairs must also sit at g_ij ≈ 0.
//     The gate tests all of it at IncrementalTol (relative per pair, like
//     the pricing pass): violators are re-admitted to the active set
//     with their carryover support seeded, the reduced program is
//     rebuilt, and the solve resumes warm until a round changes
//     nothing. Certified frozen users take θ_j = max(0, min_i g_ij), or
//     0 on an over-served column.
//
// Active sets only grow within a slot, so the loop terminates — in the
// worst case (100% churn, or a gate round that thaws everyone) at the
// plain candidate path's program. The gate runs on the duals the
// bounded solve produced, converged or not, with the relative tolerance
// absorbing budget-level dual noise — the exact stance the pricing pass
// takes with CandidateTol. Feasibility is unconditional at any
// tolerance: frozen columns carry the previous feasible decision, the
// reduced program solves under the residual capacities, and the
// model-layer repair still runs on the assembled slot, so Theorem 1's
// chain is intact.
// Only optimality rests on the gate, degrading gracefully with
// IncrementalTol exactly as pricing does with CandidateTol.
//
// All of this is data for the one solve loop in sparse.go: the active
// mask, the frozen per-cloud flow, and the rows below.
//
// What a slot costs. The program, its seeding, the candidate builder and
// the repair of the committed decision are proportional to the movers:
// O(I·active). Everything the slot reads of its frozen users walks the
// support index, the carried decision's nonzero entries user by user,
// O(J + support): the frozen flow and carried service (frozenFlow), the
// gate's support test, and the commit's carried totals X'_i, which the
// commit sums from the index after refreshing it on the columns the slot
// wrote, O(J + support + I·written). The gate's column minima read a few
// candidate clouds per user, listed at the top of each round for every
// attachment (candidateGate), O(J + I² + listed). The static
// coefficients are bound as I price terms beside a per-pair
// service-quality term that only re-attached columns recompute
// (p2Objective.bindStatic), and are read as their sum where they are
// needed. No pass streams the I×J grid but the index rebuild after a
// commit of every column or a restore. The decision
// itself costs O(I·active): the slot assembles it in the spare of two
// persistent grids after re-copying the columns the previous slot wrote
// (gridPair.level), returns it as a view, and logs only the columns it
// wrote (schedlog.go), so a committed slot writes no full grid and
// allocates two small slices. DESIGN.md §7f has the measured table.

// buildRows recomputes the active list, the frozen per-cloud flow (from
// the support index, rebuilt from the carried decision prev where stale),
// and the program's structured rows from the
// current activity flags: demand Σ_i x_ij ≥ λ_j for every active user,
// then capacity Σ_j x_ij ≤ C_i for every cloud, so the program's dual
// layout is θ' then ν' with frozen demand rows deleted. Frozen flow moves
// to the right-hand sides.
//
// The paper's complement rows Σ_{k≠i} Σ_j x_kj ≥ (Λ − C_i)⁺ are not
// emitted: they are implied (DESIGN.md §3b finding 4). Summing the active
// demand rows and adding capacity row i gives Σ_{k≠i} A_k ≥ Λ_act − C_i +
// F_i, and frozen users carry at least their demand (prev is post-repair,
// so Σ_k F_k ≥ Λ − Λ_act), which makes that no smaller than what
// complement row i still asks of the active flow, Λ − C_i − Σ_{k≠i} F_k;
// where Λ ≤ C_i the row asks nothing x ≥ 0 does not give.
// TestComplementRowsImplied asserts it on every slot's emitted rows.
func (s *singleState) buildRows(in *model.Instance, prev []float64) {
	nI, nJ := in.I, in.J
	s.actList = s.actList[:0]
	for j, a := range s.active {
		if a {
			s.userPos[j] = len(s.actList)
			s.actList = append(s.actList, j)
		}
	}
	if len(s.actList) < nJ {
		if !s.support.fresh {
			s.support.rebuild(prev)
		}
		s.frozenFlow()
	} else {
		clear(s.frozenTot)
	}
	s.rows = s.rows[:0]
	for p, j := range s.actList {
		s.rows = append(s.rows, alm.GroupRow{Kind: alm.GroupUserSum, Index: p, RHS: in.Workload[j]})
	}
	for i := 0; i < nI; i++ {
		rhs := in.Capacity[i] - s.frozenTot[i]
		if rhs < 0 {
			// Carried round-off may graze C_i; never demand negative
			// active flow.
			rhs = 0
		}
		s.rows = append(s.rows, alm.GroupRow{Kind: alm.GroupCloudSumNeg, Index: i, RHS: -rhs})
	}
	s.groups.Rows = s.rows
}

// frozenFlow collects the two sums the slot needs of its frozen columns
// from the support index, walking the users not marked active in ascending
// order and each one's entries. Into frozenTot goes, per cloud, the flow
// the carried decision gives those users: a sum over them in ascending
// order, the order the capacity right-hand sides have always been rounded
// in (X'_i less the active users' flow is the same number rounded
// differently). The entries the index leaves out are ±0, and adding ±0 to
// a sum that starts at +0 changes no bit of it, so each sum is the full
// masked one. Into frozenServed[j] goes each one's carried service
// Σ_i x'_ij, which the gate reads beside the index itself.
func (s *singleState) frozenFlow() {
	x := &s.support
	clear(s.frozenTot)
	for j, a := range s.active {
		if a {
			continue
		}
		served := 0.0
		for k := x.start[j]; k < x.start[j+1]; k++ {
			v := x.val[k]
			s.frozenTot[x.cloud[k]] += v
			served += v
		}
		s.frozenServed[j] = served
	}
}

// supportIndex is the carried decision's nonzero entries, user-major: user
// j's clouds, ascending, are cloud[start[j]:start[j+1]] and their values
// val at the same positions. It is the carried decision read column by
// column without a pass over the grid, kept current by the single
// program's commit on the columns a slot wrote (StepCtx), which writes the
// next index into a second set of buffers and swaps the two. A commit of
// every column, and the state a run starts or restores from, leave it
// stale; the next slot that freezes users rebuilds it (buildRows). The
// incremental tier alone keeps one.
type supportIndex struct {
	nI, nJ int
	start  []int // len J+1
	cloud  []int32
	val    []float64
	// spare holds the buffers the next refresh writes.
	spare struct {
		start []int
		cloud []int32
		val   []float64
	}
	mark  []bool // refresh's scratch: the columns it re-reads
	fresh bool
}

func newSupportIndex(nI, nJ int) supportIndex {
	x := supportIndex{nI: nI, nJ: nJ, start: make([]int, nJ+1), mark: make([]bool, nJ)}
	x.spare.start = make([]int, nJ+1)
	return x
}

// reserve makes the spare buffers hold at least n entries, with headroom
// so that the refreshes of a run settle into them.
func (x *supportIndex) reserve(n int) {
	if cap(x.spare.cloud) >= n {
		return
	}
	n += n + x.nI
	x.spare.cloud, x.spare.val = make([]int32, n), make([]float64, n)
}

// swap makes the spare buffers, holding n entries, the index.
func (x *supportIndex) swap(n int) {
	sp := &x.spare
	x.start, sp.start = sp.start, x.start
	x.cloud, sp.cloud = sp.cloud[:n], x.cloud[:cap(x.cloud)]
	x.val, sp.val = sp.val[:n], x.val[:cap(x.val)]
}

// rebuild indexes the grid g in two row-major passes: one counts each
// column's entries, the other places them, so every column's clouds come
// out ascending.
func (x *supportIndex) rebuild(g []float64) {
	cnt := x.spare.start
	clear(cnt)
	for i := 0; i < x.nI; i++ {
		for j, v := range g[i*x.nJ : (i+1)*x.nJ] {
			if v != 0 {
				cnt[j+1]++
			}
		}
	}
	for j := 1; j <= x.nJ; j++ {
		cnt[j] += cnt[j-1]
	}
	n := cnt[x.nJ]
	x.reserve(n)
	pos := x.start
	copy(pos, cnt)
	cloud, val := x.spare.cloud, x.spare.val
	for i := 0; i < x.nI; i++ {
		for j, v := range g[i*x.nJ : (i+1)*x.nJ] {
			if v != 0 {
				cloud[pos[j]], val[pos[j]] = int32(i), v
				pos[j]++
			}
		}
	}
	x.swap(n)
	x.fresh = true
}

// refresh re-indexes the columns cols of the grid g, which differs from the
// one the index describes on those columns alone: each of them is read
// from g, every other column's entries are copied over in runs. A stale
// index stays stale.
func (x *supportIndex) refresh(g []float64, cols []int) {
	if !x.fresh {
		return
	}
	for _, j := range cols {
		x.mark[j] = true
	}
	x.reserve(len(x.cloud) + x.nI*len(cols))
	sp := &x.spare
	n, from := 0, 0 // entries written; the first entry of x not yet passed
	for j := 0; j < x.nJ; j++ {
		if !x.mark[j] {
			sp.start[j] = n + x.start[j] - from
			continue
		}
		x.mark[j] = false
		copy(sp.val[n:], x.val[from:x.start[j]])
		n += copy(sp.cloud[n:], x.cloud[from:x.start[j]])
		sp.start[j] = n
		for i := 0; i < x.nI; i++ {
			if v := g[i*x.nJ+j]; v != 0 {
				sp.cloud[n], sp.val[n] = int32(i), v
				n++
			}
		}
		from = x.start[j+1]
	}
	copy(sp.val[n:], x.val[from:])
	n += copy(sp.cloud[n:], x.cloud[from:])
	sp.start[x.nJ] = n
	x.swap(n)
}

// cloudTotalsInto writes the per-cloud totals Σ_j x_ij of the indexed
// grid into dst: each a sum in ascending j, like Alloc.CloudTotalsInto's,
// over the entries the index lists — the others are ±0, which leave a sum
// that starts at +0 unchanged — so the totals are that pass's bit for bit.
func (x *supportIndex) cloudTotalsInto(dst []float64) {
	clear(dst)
	for k, i := range x.cloud {
		dst[i] += x.val[k]
	}
}

// candidateGate computes the freeze gate's column minima min_i g_ij over a
// few candidate clouds per user instead of all I. A frozen user j attached
// at a has g_ij = c_i + κ_j·d(a, i) up to rounding, with c_i = wa_i +
// base_i and κ_j = WSq/λ_j, so its column minimum is the lower envelope of
// I lines in one scalar evaluated at κ_j, and κ_j lies in [κLo, κHi], the
// range over all users. At the top of each gate round, candidates lists
// for every attachment the clouds whose line can come within the rounding
// margin of that envelope anywhere on the range; min over the listed
// clouds of the exact expression is then min over all I bit for bit,
// since a minimum is exact and the order it is taken in cannot change it.
type candidateGate struct {
	wsq   float64
	lam   []float64
	delay [][]float64 // Instance.InterDelay
	// kappa[j] = WSq/λ_j, or NaN where that is not finite: such a column
	// is scanned whole.
	kappa    []float64
	kLo, kHi float64

	c     []float64 // the round's wa_i + base_i
	scale float64   // the round's max_i |wa_i| + |base_i|
	// Attachment a's candidates are list[a·I : a·I+n[a]].
	list []int32
	n    []int
}

func newCandidateGate(in *model.Instance) candidateGate {
	g := candidateGate{wsq: in.WSq, lam: in.Workload, delay: in.InterDelay,
		kappa: make([]float64, in.J), kLo: math.Inf(1), kHi: math.Inf(-1),
		c:    make([]float64, in.I),
		list: make([]int32, in.I*in.I), n: make([]int, in.I)}
	for j, l := range in.Workload {
		k := in.WSq / l
		if math.IsInf(k, 0) || math.IsNaN(k) {
			g.kappa[j] = math.NaN()
			continue
		}
		g.kappa[j] = k
		g.kLo, g.kHi = min(g.kLo, k), max(g.kHi, k)
	}
	return g
}

// candidates lists into list[a·I : a·I+n[a]] the clouds of attachment a whose
// line can reach the lower envelope on [κLo, κHi]. U = min(ℓ_lo, ℓ_hi) bounds
// the envelope from above, ℓ_lo and ℓ_hi being the lowest lines at κLo and at
// κHi, and cloud i is dropped when ℓ_i − U exceeds the margin M everywhere on
// the range: then its g_ij exceeds g_lo,j or g_hi,j, which stay listed, at
// every user's κ_j. ℓ_i − U = max(A, B) with A = ℓ_i − ℓ_lo and B = ℓ_i − ℓ_hi
// linear in κ, and for every w in [0, 1] the line w·A + (1−w)·B lies below it,
// so the smaller of its values at the two ends bounds max(A, B) from below on
// the whole range. That bound needs only the lines' values at κLo and κHi, and
// a w that is off costs tightness, never soundness; w is taken where it is
// tight. M = 1e-9·(1 + max|wa_i|+|base_i| + max|κ|·max d), some 10⁶ times the
// rounding of any of these sums; magnitudes where it could not cover that list
// every cloud.
func (g *candidateGate) candidates(a int) {
	nI := len(g.c)
	list := g.list[a*nI : a*nI : (a+1)*nI]
	d := g.delay[a]
	lo, hi, dMax := 0, 0, 0.0
	pLo, qHi := g.c[0]+g.kLo*d[0], g.c[0]+g.kHi*d[0]
	for i, di := range d {
		if p := g.c[i] + g.kLo*di; p < pLo {
			lo, pLo = i, p
		}
		if q := g.c[i] + g.kHi*di; q < qHi {
			hi, qHi = i, q
		}
		dMax = max(dMax, math.Abs(di))
	}
	m := 1e-9 * (1 + g.scale + max(math.Abs(g.kLo), math.Abs(g.kHi))*dMax)
	if !(m < 1e290 && g.wsq*dMax < 1e300) {
		for i := range d {
			list = append(list, int32(i))
		}
		g.n[a] = len(list)
		return
	}
	pHi, qLo := g.c[hi]+g.kLo*d[hi], g.c[lo]+g.kHi*d[lo]
	span := (pHi - pLo) + (qLo - qHi)
	for i, di := range d {
		p, q := g.c[i]+g.kLo*di, g.c[i]+g.kHi*di
		a0, b0, a1, b1 := p-pLo, p-pHi, q-qLo, q-qHi
		w := (b1 - b0) / span
		if !(w > 0) {
			w = 0
		} else if w > 1 {
			w = 1
		}
		if min(w*a0+(1-w)*b0, w*a1+(1-w)*b1) > m {
			continue
		}
		list = append(list, int32(i))
	}
	g.n[a] = len(list)
}

// check is the freeze gate's per-column KKT test (see the file comment) on
// every column not marked active, with base from kktBase and the carried
// decision read from the support index x, whose columns' service served
// holds (frozenFlow): every support pair of such a column must sit within
// tol (relative per pair) of the column minimum min_i g_ij, and not below
// −tol; where the column over-serves, served[j] − λ_j > tol·(1+λ_j), also
// not above tol. It sets viol[j] where the test fails and leaves colMin[j]
// = min_i g_ij — 0 on an over-served column — so that column j's demand
// dual is max(0, colMin[j]) on every column it certifies. It reads each
// coefficient as wa_i + sq_ij, with sq_ij recomputed as attachSQ computes
// it, for the attachment d.sqAttach[j] the bind left.
func (g *candidateGate) check(d *p2Objective, x *supportIndex, active []bool, served, base []float64, tol float64, colMin []float64, viol []bool) {
	g.scale = 0
	for i, w := range d.wa {
		g.c[i] = w + base[i]
		g.scale = max(g.scale, math.Abs(w)+math.Abs(base[i]))
	}
	nI := len(g.c)
	for a := range nI {
		g.candidates(a)
	}
	for j, act := range active {
		if act {
			continue
		}
		a, lam := d.sqAttach[j], g.lam[j]
		dl := g.delay[a]
		m := math.Inf(1)
		if math.IsNaN(g.kappa[j]) {
			for i, di := range dl {
				m = min(m, d.wa[i]+g.wsq*di/lam+base[i])
			}
		} else {
			for _, i := range g.list[a*nI : a*nI+g.n[a]] {
				m = min(m, d.wa[i]+g.wsq*dl[i]/lam+base[i])
			}
		}
		over := overServed(served[j], lam, tol)
		bad := false
		for k := x.start[j]; k < x.start[j+1]; k++ {
			if !(x.val[k] > 0) {
				continue
			}
			i := x.cloud[k]
			c := d.wa[i] + g.wsq*dl[i]/lam
			v := c + base[i]
			sc := tol * (1 + math.Abs(c))
			if v-m > sc || v < -sc || v > sc && over {
				bad = true
				break
			}
		}
		if over {
			m = 0
		}
		colMin[j], viol[j] = m, bad
	}
}

// gateFrozen certifies every frozen column against the round's
// multipliers, recording the certified columns' demand duals. A violator
// joins the active set with its candidate pairs seeded (nearest clouds
// plus carryover support); its demand row re-enters warm at the θ already
// in the working duals — the committed value, or the gate's estimate from
// an earlier round. It returns the number of users re-admitted.
func (o *OnlineApprox) gateFrozen(t int) int {
	s := o.single
	s.gate.check(o.obj, &s.support, s.active, s.frozenServed, s.base, o.opts.IncrementalTol, s.colMin, s.viol)
	readmitted := 0
	for j, act := range s.active {
		if act {
			continue
		}
		if s.viol[j] {
			s.active[j] = true
			o.seedUser(t, j, o.prev.X)
			readmitted++
			continue
		}
		s.duals[j] = max(0, s.colMin[j])
	}
	return readmitted
}

// FreezePasses returns the incremental tier's three per-slot passes over
// its frozen users, bound to the state the last committed slot left: one
// gate round (candidateGate.check), one frozen-flow walk of the support
// index (frozenFlow), and the commit's carried totals summed from the
// index. Each writes only scratch the next slot rewrites, or the values
// already there, so they can be timed one by one (internal/perf's
// BenchmarkFreezeGate); the next Step is unaffected. They are nil unless
// the last commit left the index fresh: on Incremental, after a slot that
// froze users.
func (o *OnlineApprox) FreezePasses() (gate, flow, totals func()) {
	s := o.single
	if s == nil || !s.support.fresh {
		return nil, nil, nil
	}
	gate = func() {
		s.gate.check(o.obj, &s.support, s.active, s.frozenServed, s.base, o.opts.IncrementalTol, s.colMin, s.viol)
	}
	return gate, s.frozenFlow, func() { s.support.cloudTotalsInto(o.obj.prevTot) }
}

// overServed reports whether a carried column serving served against the
// demand lam leaves its demand row slack at the gate's tolerance, so that
// complementary slackness pins its dual θ_j to 0.
func overServed(served, lam, tol float64) bool { return served-lam > tol*(1+lam) }
