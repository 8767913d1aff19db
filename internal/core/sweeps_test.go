package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/solver/alm"
)

// The incremental tier's per-slot sweeps — the static coefficients, the
// frozen flow, the freeze gate — each replaced a routine that is still in
// the tree as its reference. These tests hold the replacement to the
// reference bit for bit; the touched-column repair and the candidate
// builder have theirs in internal/model.

// sameBits reports the first index at which a and b differ as bit patterns,
// or -1.
func sameBits(a, b []float64) int {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return k
		}
	}
	return -1
}

// TestStaticCacheMatchesStaticCoeffInto walks an objective through slots in
// an order no run takes — forwards, a slot bound twice, backwards — and
// then follows a run of each solve path through a cancelled-and-retried
// Step and a RestoreState resume: after every bind wa_i + sq_ij must be
// Instance.StaticCoeffInto's coefficient, and so must the dense grid of the
// walk, which no solve path allocates: every path reads a coefficient as
// wa_i + sq_ij.
func TestStaticCacheMatchesStaticCoeffInto(t *testing.T) {
	rng := rand.New(rand.NewSource(2401))
	paths := []Options{
		{},
		{Candidates: 2},
		{Incremental: true},
		{Candidates: 2, Incremental: true},
		{Shards: 2},
	}
	for trial := 0; trial < 20; trial++ {
		in := smallRandomInstance(rng)
		if trial%2 == 0 {
			withChurn(in, 0.3, rng)
		}
		opts := paths[trial%len(paths)]
		want := make([]float64, in.I*in.J)
		check := func(where string, o *p2Objective, tt int, dense bool) {
			t.Helper()
			in.StaticCoeffInto(tt, want)
			for k, w := range want {
				if c := o.wa[k/in.J] + o.sq[k]; math.Float64bits(c) != math.Float64bits(w) {
					t.Fatalf("trial %d %+v %s slot %d: wa + sq at %d = %v, StaticCoeffInto has %v",
						trial, opts, where, tt, k, c, w)
				}
			}
			if dense != (o.coef != nil) {
				t.Fatalf("trial %d %+v %s: dense coefficient grid present = %v, want %v",
					trial, opts, where, o.coef != nil, dense)
			}
			if k := sameBits(o.coef, want); k >= 0 {
				t.Fatalf("trial %d %+v %s slot %d: coef[%d] = %v, StaticCoeffInto has %v",
					trial, opts, where, tt, k, o.coef[k], want[k])
			}
		}
		o := newP2ObjectiveConst(in, 1, 1, false)
		o.coef = make([]float64, in.I*in.J)
		for step := 0; step < 4*in.T; step++ {
			tt := rng.Intn(in.T)
			o.bindStatic(in, tt)
			check("walk", o, tt, true)
			if step%3 == 0 {
				o.bindStatic(in, tt)
				check("rebind", o, tt, true)
			}
		}

		a := NewOnlineApprox(in, opts)
		cut := 1 + rng.Intn(in.T-1)
		for tt := 0; tt < cut; tt++ {
			if tt == cut-1 {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := a.StepCtx(ctx, tt); err == nil {
					t.Fatalf("trial %d: cancelled Step(%d) succeeded", trial, tt)
				}
				check("cancelled", a.obj, tt, false)
			}
			if _, err := a.Step(tt); err != nil {
				t.Fatal(err)
			}
			check("step", a.obj, tt, false)
		}
		b := NewOnlineApprox(in, opts)
		if err := b.RestoreState(a.ExportState()); err != nil {
			t.Fatal(err)
		}
		for tt := cut; tt < in.T; tt++ {
			if _, err := b.Step(tt); err != nil {
				t.Fatal(err)
			}
			check("restored", b.obj, tt, false)
		}
	}
}

// denseFrozenFlow is the frozen flow and frozen support as one streaming
// pass over the carried decision computes them: per cloud, the masked sum
// over every user not marked active, in ascending order, into dst, and
// those users' pairs with prev > 0 appended to supp. Four rows advance
// abreast for the reason Alloc.CloudTotalsInto gives. It is the reference
// singleState.frozenFlow's walk of the support index must reproduce.
func denseFrozenFlow(dst, prev []float64, active []bool, supp []supportPair) []supportPair {
	n := len(active)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		r0, r1, r2, r3 := prev[i*n:(i+1)*n], prev[(i+1)*n:(i+2)*n], prev[(i+2)*n:(i+3)*n], prev[(i+3)*n:(i+4)*n]
		var f0, f1, f2, f3 float64
		for j, a := range active {
			if a {
				continue
			}
			v0, v1, v2, v3 := r0[j], r1[j], r2[j], r3[j]
			f0 += v0
			f1 += v1
			f2 += v2
			f3 += v3
			if v0 > 0 {
				supp = append(supp, supportPair{int32(i), int32(j)})
			}
			if v1 > 0 {
				supp = append(supp, supportPair{int32(i + 1), int32(j)})
			}
			if v2 > 0 {
				supp = append(supp, supportPair{int32(i + 2), int32(j)})
			}
			if v3 > 0 {
				supp = append(supp, supportPair{int32(i + 3), int32(j)})
			}
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = f0, f1, f2, f3
	}
	for ; i < len(dst); i++ {
		row, f := prev[i*n:(i+1)*n], 0.0
		for j, a := range active {
			if a {
				continue
			}
			f += row[j]
			if row[j] > 0 {
				supp = append(supp, supportPair{int32(i), int32(j)})
			}
		}
		dst[i] = f
	}
	return supp
}

// sortPairs orders support pairs by cloud, then user.
func sortPairs(p []supportPair) {
	slices.SortFunc(p, func(a, b supportPair) int {
		if a.i != b.i {
			return int(a.i - b.i)
		}
		return int(a.j - b.j)
	})
}

// supportPair names one pair (i, j) with x'_ij > 0.
type supportPair struct{ i, j int32 }

// checkIndex holds a support index to the grid g it describes: every
// column's listed clouds and values are the column's nonzero entries, in
// ascending cloud order, bit for bit, and the index's totals are
// Alloc.CloudTotalsInto's. It returns the number of −0 entries it saw.
func checkIndex(t *testing.T, where string, x *supportIndex, g []float64) (negZero int) {
	t.Helper()
	nI, nJ := x.nI, x.nJ
	if len(x.start) != nJ+1 || x.start[0] != 0 || x.start[nJ] != len(x.cloud) || len(x.val) != len(x.cloud) {
		t.Fatalf("%s: index of %d entries has start[0] = %d, start[J] = %d, %d values",
			where, len(x.cloud), x.start[0], x.start[nJ], len(x.val))
	}
	for j := 0; j < nJ; j++ {
		k := x.start[j]
		for i := 0; i < nI; i++ {
			v := g[i*nJ+j]
			if v == 0 {
				if math.Signbit(v) {
					negZero++
				}
				continue
			}
			if k >= x.start[j+1] || x.cloud[k] != int32(i) || math.Float64bits(x.val[k]) != math.Float64bits(v) {
				t.Fatalf("%s: user %d's entries %v %v, the grid has %v at cloud %d",
					where, j, x.cloud[x.start[j]:x.start[j+1]], x.val[x.start[j]:x.start[j+1]], v, i)
			}
			k++
		}
		if k != x.start[j+1] {
			t.Fatalf("%s: user %d lists %d entries, the grid has %d", where, j, x.start[j+1]-x.start[j], k-x.start[j])
		}
	}
	want, got := make([]float64, nI), make([]float64, nI)
	model.Alloc{I: nI, J: nJ, X: g}.CloudTotalsInto(want)
	x.cloudTotalsInto(got)
	if k := sameBits(got, want); k >= 0 {
		t.Fatalf("%s: indexed total of cloud %d = %v, CloudTotalsInto %v", where, k, got[k], want[k])
	}
	return negZero
}

// TestSupportIndexMatchesGrid holds the support index to the grid it
// indexes. After every committed slot of incremental runs, with and without
// candidates — ragged commits that refresh the index, full commits that
// leave it stale — and after a RestoreState, an index the run keeps fresh
// must equal a rebuild from the carried decision entry for entry, and a
// rebuild must list exactly the grid's nonzero entries. The carried totals
// X'_i the commit summed from the index, or streamed where it was stale,
// must be Alloc.CloudTotalsInto's bit for bit, and for a random activity
// mask the walk of the index gives the dense pass's frozen flow and the
// column sums as frozen service, bit for bit. The runs go through slots
// cancelled at their last poll, after a first round scattered into the
// spare grid, and through a RestoreState mid-run whose carried decision
// holds a −0 and a column short of its demand, which the next commit
// repairs while its user stays frozen.
func TestSupportIndexMatchesGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(2403))
	ragged, full, restored, cancelled, negZero, shortCols := 0, 0, 0, 0, 0, 0
	check := func(where string, a *OnlineApprox) {
		t.Helper()
		in, s := a.inst, a.single
		prev := a.prev.X
		ref := newSupportIndex(in.I, in.J)
		ref.rebuild(prev)
		negZero += checkIndex(t, where+" rebuilt", &ref, prev)
		if s.support.fresh {
			if !slices.Equal(s.support.start, ref.start) || !slices.Equal(s.support.cloud, ref.cloud) ||
				sameBits(s.support.val, ref.val) >= 0 || len(s.support.val) != len(ref.val) {
				t.Fatalf("%s: the refreshed index differs from a rebuild", where)
			}
		}
		want := make([]float64, in.I)
		a.prev.CloudTotalsInto(want)
		if k := sameBits(a.obj.prevTot, want); k >= 0 {
			t.Fatalf("%s: carried total of cloud %d = %v, CloudTotalsInto %v", where, k, a.obj.prevTot[k], want[k])
		}

		walk := &singleState{active: make([]bool, in.J), frozenTot: make([]float64, in.I),
			frozenServed: make([]float64, in.J), support: ref}
		for j := range walk.active {
			walk.active[j] = rng.Intn(3) == 0
		}
		walk.frozenFlow()
		denseFrozenFlow(want, prev, walk.active, nil)
		if k := sameBits(walk.frozenTot, want); k >= 0 {
			t.Fatalf("%s: indexed frozen flow of cloud %d = %v, dense pass %v", where, k, walk.frozenTot[k], want[k])
		}
		for j, act := range walk.active {
			served := 0.0
			for i := 0; i < in.I; i++ {
				served += prev[i*in.J+j]
			}
			if !act && math.Float64bits(walk.frozenServed[j]) != math.Float64bits(served) {
				t.Fatalf("%s: indexed service of user %d = %v, column sum %v", where, j, walk.frozenServed[j], served)
			}
		}
	}
	step := func(where string, a *OnlineApprox, tt int) {
		t.Helper()
		if _, err := a.Step(tt); err != nil {
			t.Fatal(err)
		}
		shortCols += len(a.single.visit) - len(a.single.actList)
		if len(a.single.visit) == a.inst.J {
			full++
			if a.single.support.fresh {
				t.Fatalf("%s: a commit of every column left the index fresh", where)
			}
		} else {
			ragged++
			if !a.single.support.fresh {
				t.Fatalf("%s: a ragged commit left the index stale", where)
			}
		}
		check(where, a)
	}
	for trial, tc := range []struct {
		name string
		opts Options
	}{
		{"incremental tight", Options{Incremental: true, IncrementalTol: 1e-9}},
		{"candidates+incremental tight", Options{Candidates: 2, Incremental: true, IncrementalTol: 1e-9}},
		{"incremental", Options{Incremental: true}},
		{"candidates+incremental", Options{Candidates: 3, Incremental: true}},
		{"incremental loose", Options{Incremental: true, IncrementalTol: 0.5}},
		{"candidates+incremental loose", Options{Candidates: 3, Incremental: true, IncrementalTol: 0.5}},
	} {
		opts := tc.opts
		in, _, err := scenario.Rome(scenario.Config{Users: 12, Horizon: 8, Seed: int64(40 + trial)})
		if err != nil {
			t.Fatal(err)
		}
		withChurn(in, 0.25, rng)
		// The reference run's last poll of each slot, and whether the slot
		// took a second round (so that its first had scattered by then).
		ref := NewOnlineApprox(in, opts)
		lastPoll, scattered := make([]int, in.T), make([]bool, in.T)
		for tt := 0; tt < in.T; tt++ {
			if _, err := ref.Step(tt); err != nil {
				t.Fatal(err)
			}
			d := ref.LastStepDiag()
			lastPoll[tt], scattered[tt] = d.Outer+d.Inner-1, d.CandRounds >= 2
		}

		cut := in.T / 2
		a := NewOnlineApprox(in, opts)
		for tt := 0; tt < cut; tt++ {
			if tt > 0 && scattered[tt] {
				if _, err := a.StepCtx(newCountdownCtx(lastPoll[tt]), tt); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s slot %d: cancel at poll %d: err = %v", tc.name, tt, lastPoll[tt], err)
				}
				cancelled++
				check(fmt.Sprintf("%s cancelled slot %d", tc.name, tt), a)
			}
			step(fmt.Sprintf("%s slot %d", tc.name, tt), a, tt)
		}
		st := a.ExportState()
		last := denseOf(in.I*in.J, st.Schedule[cut-1])
		k := slices.Index(last, 0)
		if k < 0 {
			t.Fatalf("%s: slot %d's decision has no zero entry to sign", tc.name, cut-1)
		}
		last[k] = math.Copysign(0, -1)
		// A user who keeps its attachment into slot cut restores a tenth
		// of a percent short of its demand: the restored short list names
		// it, and the next commit repairs it whether or not it is active.
		for j := 0; j < in.J; j++ {
			if in.Attach[cut][j] == in.Attach[cut-1][j] {
				for i := 0; i < in.I; i++ {
					last[i*in.J+j] *= 0.999
				}
				break
			}
		}
		st.Schedule[cut-1] = entries(last)
		b := NewOnlineApprox(in, opts)
		if err := b.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		restored++
		check(fmt.Sprintf("%s restored", tc.name), b)
		for tt := cut; tt < in.T; tt++ {
			step(fmt.Sprintf("%s restored slot %d", tc.name, tt), b, tt)
		}
	}
	t.Logf("%d ragged and %d full commits, %d restores, %d cancelled slots, %d −0 entries, %d carried-short columns visited", ragged, full, restored, cancelled, negZero, shortCols)
	if ragged < 15 || full < 6 || restored < 6 || cancelled == 0 || negZero == 0 || shortCols < 2 {
		t.Errorf("%d ragged and %d full commits, %d restores, %d slots cancelled after a scatter, %d −0 entries, %d carried-short columns visited: a case went unexercised",
			ragged, full, restored, cancelled, negZero, shortCols)
	}
}

// gateCase is random slot data for the gate: coefficients, a carried
// decision with one to three support pairs per column, per-cloud base
// terms, demands, and an activity mask. Some columns have a support pair
// placed at the tolerance boundary of the column minimum — on it, one ulp
// inside and one ulp outside — some a minimum that is a zero of either
// sign, and some carry more than their demand, at g = 0 on their support
// or anywhere. The other columns' demand is what they carry. Half
// the cases split every coefficient c into a random price term wa_i and
// sq_ij = c − wa_i; the other half keep wa = 0, so that wa_i + sq_ij is c
// exactly and the boundary and zero cases land where they were placed.
func gateCase(rng *rand.Rand, tol float64) (d *p2Objective, base, lam []float64, active []bool) {
	nI, nJ := 2+rng.Intn(9), 1+rng.Intn(40)
	d = &p2Objective{nI: nI, nJ: nJ, wa: make([]float64, nI),
		sq: make([]float64, nI*nJ), prev: make([]float64, nI*nJ)}
	coef := make([]float64, nI*nJ)
	base = make([]float64, nI)
	for i := range base {
		base[i] = 2*rng.Float64() - 0.5
	}
	active = make([]bool, nJ)
	over := make([]bool, nJ)
	for j := 0; j < nJ; j++ {
		active[j] = rng.Intn(5) == 0
		for i := 0; i < nI; i++ {
			coef[i*nJ+j] = 4 * rng.Float64()
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			d.prev[rng.Intn(nI)*nJ+j] = 0.1 + rng.Float64()
		}
		switch rng.Intn(5) {
		case 0:
			// A support pair at the boundary: the column minimum is 1, and
			// the pair's g − 1 is tol·(1+|c|) moved by up to an ulp either
			// way.
			lo, hi := rng.Intn(nI), rng.Intn(nI)
			if lo == hi {
				break
			}
			for i := 0; i < nI; i++ {
				coef[i*nJ+j] = 2 + rng.Float64() - base[i]
			}
			coef[lo*nJ+j] = 1 - base[lo]
			c := 1 - base[hi]
			for n := 0; n < 60; n++ {
				c = 1 - base[hi] + tol*(1+math.Abs(c))
			}
			switch rng.Intn(3) {
			case 0:
				c = math.Nextafter(c, math.Inf(1))
			case 1:
				c = math.Nextafter(c, math.Inf(-1))
			}
			coef[hi*nJ+j] = c
			d.prev[hi*nJ+j] = 1
		case 1:
			// Zeros of both signs among the column's gradients, nothing
			// below them: gateColumn keeps the first, min the negative one.
			for i := 0; i < nI; i++ {
				coef[i*nJ+j] = -base[i] + float64(rng.Intn(2))
			}
			i := rng.Intn(nI)
			coef[i*nJ+j] = math.Copysign(0, -1) - base[i]
		case 2:
			// Over-served at g = 0 on the support and above it off the
			// support: θ_j = 0 certifies the column.
			for i := 0; i < nI; i++ {
				coef[i*nJ+j] = -base[i]
				if d.prev[i*nJ+j] == 0 {
					coef[i*nJ+j] += rng.Float64()
				}
			}
			over[j] = true
		case 3:
			over[j] = rng.Intn(2) == 0
		}
	}
	lam = make([]float64, nJ)
	for j := range lam {
		for i := 0; i < nI; i++ {
			lam[j] += d.prev[i*nJ+j]
		}
		if over[j] {
			lam[j] *= 0.1 + 0.8*rng.Float64()
		}
	}
	if rng.Intn(2) == 0 {
		for i := range d.wa {
			d.wa[i] = rng.Float64() - 0.5
		}
	}
	for k, c := range coef {
		d.sq[k] = c - d.wa[k/nJ]
	}
	return d, base, lam, active
}

// TestGateColumnsMatchesGateColumn holds the streamed gate to the
// per-column reference: for every frozen user the same verdict and the same
// bits of θ, and the same frozen flow as the plain masked sum.
func TestGateColumnsMatchesGateColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(2402))
	violations, certified, slack := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		tol := []float64{1e-9, 1e-3, 0.25}[trial%3]
		d, base, lam, active := gateCase(rng, tol)
		nI, nJ := d.nI, d.nJ

		frozenTot := make([]float64, nI)
		supp := denseFrozenFlow(frozenTot, d.prev, active, nil)
		for i := 0; i < nI; i++ {
			f := 0.0
			for j := 0; j < nJ; j++ {
				if !active[j] {
					f += d.prev[i*nJ+j]
				}
			}
			if math.Float64bits(f) != math.Float64bits(frozenTot[i]) {
				t.Fatalf("trial %d: frozen flow of cloud %d = %v, masked sum %v", trial, i, frozenTot[i], f)
			}
		}

		served := make([]float64, nJ)
		for j := range served {
			for i := 0; i < nI; i++ {
				served[j] += d.prev[i*nJ+j]
			}
		}
		colMin, viol := make([]float64, nJ), make([]bool, nJ)
		// Stale scratch from an earlier round must not leak.
		for j := range viol {
			viol[j], colMin[j] = true, -1e300
		}
		d.gateColumns(colMin, viol, supp, served, lam, base, tol)
		for j := 0; j < nJ; j++ {
			if active[j] {
				continue
			}
			wantTheta, wantViol := d.gateColumn(j, lam, base, tol)
			if viol[j] != wantViol {
				t.Fatalf("trial %d user %d: streamed gate violated=%v, gateColumn %v", trial, j, viol[j], wantViol)
			}
			if wantViol {
				violations++
				continue
			}
			certified++
			if served[j]-lam[j] > tol*(1+lam[j]) {
				slack++
			}
			theta := math.Max(0, colMin[j])
			if math.Float64bits(theta) != math.Float64bits(wantTheta) {
				t.Fatalf("trial %d user %d: θ = %v, gateColumn %v", trial, j, theta, wantTheta)
			}
		}
	}
	if violations < 100 || certified < 100 || slack < 50 {
		t.Errorf("%d violations and %d certified columns, %d of them over-served: one side of the gate went unexercised",
			violations, certified, slack)
	}
}

// gateColumn is gateColumns' per-column reference: the freeze gate's KKT
// test on user j's carried column of the dense slot data, with base from
// kktBase. Every support pair must sit within tol (relative per pair) of
// the column minimum min_i g_ij, and not below −tol; on a column carrying
// more than tol·(1+λ_j) over its demand λ_j = lam[j], not above tol
// either. It returns the column's embedded demand dual — 0 on such a
// column, θ_j = max(0, min_i g_ij) on any other — and whether the test
// failed.
func (d *p2Objective) gateColumn(j int, lam, base []float64, tol float64) (theta float64, violated bool) {
	aMin, served := math.Inf(1), 0.0
	for i := 0; i < d.nI; i++ {
		if g := d.wa[i] + d.sq[i*d.nJ+j] + base[i]; g < aMin {
			aMin = g
		}
		served += d.prev[i*d.nJ+j]
	}
	over := served-lam[j] > tol*(1+lam[j])
	for i := 0; i < d.nI; i++ {
		k := i*d.nJ + j
		if d.prev[k] <= 0 {
			continue
		}
		c := d.wa[i] + d.sq[k]
		g := c + base[i]
		sc := tol * (1 + math.Abs(c))
		if g-aMin > sc || g < -sc || over && g > sc {
			return 0, true
		}
	}
	if aMin > 0 && !over {
		return aMin, false
	}
	return 0, false
}

// gateColumns is the freeze gate as one streaming pass over the dense
// slot data computes it, the second reference of candidateGate.check:
// colMin[j] = min_i g_ij for every column, taken four rows abreast with
// the builtin min (a minimum is exact, so the order the clouds are taken in
// cannot change it), then the support pairs listed in supp tested against
// it, viol[j] set where one fails, and last an over-served column's
// colMin[j] set to 0. supp and served must hold the support and carried
// service of every column whose verdict is read (denseFrozenFlow). Unlike
// gateColumn, whose comparisons pass over a NaN, its minimum is NaN on a
// column with one, as the gate's is.
func (d *p2Objective) gateColumns(colMin []float64, viol []bool, supp []supportPair, served, lam, base []float64, tol float64) {
	nJ := d.nJ
	colMin = colMin[:nJ]
	w, b := d.wa[0], base[0]
	for j, q := range d.sq[:nJ] {
		colMin[j] = w + q + b
	}
	i := 1
	for ; i+4 <= d.nI; i += 4 {
		w0, w1, w2, w3 := d.wa[i], d.wa[i+1], d.wa[i+2], d.wa[i+3]
		b0, b1, b2, b3 := base[i], base[i+1], base[i+2], base[i+3]
		r0, r1, r2, r3 := d.sq[i*nJ:(i+1)*nJ], d.sq[(i+1)*nJ:(i+2)*nJ], d.sq[(i+2)*nJ:(i+3)*nJ], d.sq[(i+3)*nJ:(i+4)*nJ]
		for j, m := range colMin {
			colMin[j] = min(m, w0+r0[j]+b0, w1+r1[j]+b1, w2+r2[j]+b2, w3+r3[j]+b3)
		}
	}
	for ; i < d.nI; i++ {
		w, b = d.wa[i], base[i]
		for j, q := range d.sq[i*nJ : (i+1)*nJ] {
			colMin[j] = min(colMin[j], w+q+b)
		}
	}
	clear(viol)
	for _, e := range supp {
		c := d.wa[e.i] + d.sq[int(e.i)*nJ+int(e.j)]
		g := c + base[e.i]
		sc := tol * (1 + math.Abs(c))
		if g-colMin[e.j] > sc || g < -sc || g > sc && overServed(served[e.j], lam[e.j], tol) {
			viol[e.j] = true
		}
	}
	for _, e := range supp {
		if overServed(served[e.j], lam[e.j], tol) {
			colMin[e.j] = 0
		}
	}
}

// candidateGateCase is random slot data for the candidate gate, built the
// way a run binds it: delays, workloads and attachments give sq through
// attachSQ, and per-cloud price terms wa and base terms complete g_ij =
// wa_i + sq_ij + base_i. Its corners are counted in cases: delay columns
// copied from another cloud (lines of equal slope at every attachment),
// WSq = 0 (every κ_j is 0), several users on each of the extreme workloads
// (κ_j at κLo and κHi), positive ν on some clouds' base, price and base
// terms that cancel, two clouds placed within a few ulps of each other at
// the minimum of some column, on parallel lines or not, two parallel lines
// on which g_ij and the line values c_i + κ_j·d(a, i) disagree in order
// (rounding disagreement), and zero-workload columns (κ_j infinite or
// NaN). Each column carries one to
// three support pairs, on its minimum or anywhere, and carries its demand,
// or more.
func candidateGateCase(rng *rand.Rand, cases map[string]int) (in *model.Instance, d *p2Objective, base []float64, active []bool) {
	nI, nJ := 2+rng.Intn(9), 1+rng.Intn(40)
	in = &model.Instance{I: nI, J: nJ, T: 1, WSq: 0.5 + 2*rng.Float64()}
	if rng.Intn(6) == 0 {
		in.WSq = 0
		cases["WSq = 0"]++
	}
	in.InterDelay = make([][]float64, nI)
	for a := range in.InterDelay {
		in.InterDelay[a] = make([]float64, nI)
		for i := range in.InterDelay[a] {
			if i != a {
				in.InterDelay[a][i] = 4 * rng.Float64()
			}
		}
	}
	if rng.Intn(3) == 0 {
		i, k := rng.Intn(nI), rng.Intn(nI)
		for a := range in.InterDelay {
			in.InterDelay[a][i] = in.InterDelay[a][k]
		}
		cases["equal slopes"]++
	}
	lo, hi := 0.2+rng.Float64(), 1.5+rng.Float64()
	in.Workload = make([]float64, nJ)
	in.Attach = [][]int{make([]int, nJ)}
	for j := range in.Workload {
		switch rng.Intn(6) {
		case 0:
			in.Workload[j] = lo
		case 1:
			in.Workload[j] = hi
		default:
			in.Workload[j] = lo + (hi-lo)*rng.Float64()
		}
		in.Attach[0][j] = rng.Intn(nI)
	}
	if rng.Intn(4) == 0 {
		in.Workload[rng.Intn(nJ)] = 0
	}
	d = &p2Objective{nI: nI, nJ: nJ, wa: make([]float64, nI), sq: make([]float64, nI*nJ),
		sqAttach: make([]int, nJ), prev: make([]float64, nI*nJ)}
	for j := range d.sqAttach {
		d.sqAttach[j] = -1
	}
	attachSQ(in, 0, d.sq, d.sqAttach)
	base = make([]float64, nI)
	for i := range base {
		d.wa[i] = 0.5 + 3*rng.Float64()
		base[i] = 0.6*rng.Float64() - 0.5
		if rng.Intn(3) == 0 {
			base[i] += 2 * rng.Float64()
			cases["ν > 0"]++
		}
	}
	cancel := rng.Intn(3) == 0
	if cancel {
		// Price and base terms of 10⁶ to 8·10⁶ that cancel: g_ij = (wa_i +
		// sq_ij) + base_i rounds at ulp(wa_i), while the line c_i +
		// κ_j·d(a, i) the candidate lists are cut by sums wa_i + base_i
		// exactly, so the two disagree by up to ~10⁻⁹ — what the rounding
		// margin is there for.
		for i := range base {
			l := math.Ldexp(1e6, rng.Intn(4))
			d.wa[i] += l
			base[i] -= l
		}
		cases["cancelling terms"]++
	}
	g := func(i, j int) float64 { return d.wa[i] + d.sq[i*nJ+j] + base[i] }
	// delay sets d(a, i) and recomputes sq for the users attached at a.
	delay := func(a, i int, v float64) {
		in.InterDelay[a][i] = v
		for k, at := range in.Attach[0] {
			if at == a {
				d.sqAttach[k] = -1
			}
		}
		attachSQ(in, 0, d.sq, d.sqAttach)
	}
	argmin := func(j int) int {
		best := 0
		for i := 1; i < nI; i++ {
			if g(i, j) < g(best, j) {
				best = i
			}
		}
		return best
	}
	if j := rng.Intn(nJ); nI > 1 && in.Workload[j] > 0 && rng.Intn(2) == 0 {
		// A second cloud within a few ulps of column j's minimum; half the
		// time on a line parallel to the minimum's at j's attachment, so
		// that the two stay that close on the whole range of κ.
		i1 := argmin(j)
		i2 := (i1 + 1 + rng.Intn(nI-1)) % nI
		if rng.Intn(2) == 0 {
			a := in.Attach[0][j]
			delay(a, i2, in.InterDelay[a][i1])
			cases["near tie, parallel"]++
		}
		base[i2] = nudge(g(i1, j)-(d.wa[i2]+d.sq[i2*nJ+j]), rng.Intn(7)-3)
		cases["near tie"]++
	}
	pinned := -1
	if j := slices.Index(in.Workload, hi); cancel && nI > 1 && j >= 0 {
		// Two lines, the lowest at j's attachment a by far, on which g_ij
		// and the lines disagree in order at κ_j = κLo, the end of the
		// range where they are closest: cut by the lines alone, the list
		// would drop the cloud with the smaller g_ij. Column j is frozen,
		// carried on that cloud, and tight, so its θ_j = min_i g_ij > 0
		// tells the two clouds apart.
		a, i1 := in.Attach[0][j], rng.Intn(nI)
		i2 := (i1 + 1 + rng.Intn(nI-1)) % nI
		for i := range base {
			if i != i1 && i != i2 {
				base[i] += 100
			}
		}
		d.wa[i2] += 8e6 // its g_ij rounds coarser than i1's
		k, dl := in.WSq/hi, in.InterDelay[a]
		for try := 0; try < 30 && pinned < 0; try++ {
			delay(a, i2, dl[i1]+0.1+rng.Float64())
			x2 := d.wa[i2] + d.sq[i2*nJ+j]
			for n := -3; n <= 3; n++ {
				b := nudge(g(i1, j)-x2, n)
				if x2+b < g(i1, j) && d.wa[i2]+b+k*dl[i2] > d.wa[i1]+base[i1]+k*dl[i1] {
					base[i2], pinned = b, j
					cases["rounding disagreement"]++
					break
				}
			}
		}
	}
	active = make([]bool, nJ)
	for j := 0; j < nJ; j++ {
		active[j] = rng.Intn(5) == 0
		var supp []int
		if rng.Intn(2) == 0 || j == pinned {
			supp = append(supp, argmin(j))
		}
		for n := rng.Intn(3); j != pinned && (n > 0 || len(supp) == 0); n-- {
			supp = append(supp, rng.Intn(nI))
		}
		lam := in.Workload[j]
		if lam == 0 {
			lam = 1
		}
		if rng.Intn(4) == 0 && j != pinned {
			lam *= 1.2 + rng.Float64()
		}
		if j == pinned {
			active[j] = false
		}
		for _, i := range supp {
			d.prev[i*nJ+j] += lam / float64(len(supp))
		}
	}
	return in, d, base, active
}

// nudge moves v by n ulps.
func nudge(v float64, n int) float64 {
	for ; n > 0; n-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; n < 0; n++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// TestCandidateGateMatchesGateColumn holds the candidate gate to the
// per-column reference gateColumn and to the streaming pass gateColumns:
// on every frozen column the same verdict and the same bits of θ_j, where
// gateColumn's minimum is the gate's (a column with a NaN is held to the
// streaming pass alone, whose NaN the gate must reproduce). Each case runs
// two gate rounds over the same scratch with different base terms, so a
// candidate list or a verdict of the first cannot leak into the second.
func TestCandidateGateMatchesGateColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(2404))
	cases := map[string]int{}
	kept, lists := 0, 0
	for trial := 0; trial < 600; trial++ {
		tol := []float64{1e-9, 1e-3, 0.25}[trial%3]
		in, d, base, active := candidateGateCase(rng, cases)
		nI, nJ := d.nI, d.nJ
		x := newSupportIndex(nI, nJ)
		x.rebuild(d.prev)
		served := make([]float64, nJ)
		for j := range served {
			for i := 0; i < nI; i++ {
				served[j] += d.prev[i*nJ+j]
			}
		}
		supp := denseFrozenFlow(make([]float64, nI), d.prev, active, nil)
		gate := newCandidateGate(in)
		colMin, viol := make([]float64, nJ), make([]bool, nJ)
		wantMin, wantViol := make([]float64, nJ), make([]bool, nJ)
		for round := 0; round < 2; round++ {
			if round == 1 {
				for i := range base {
					base[i] += 0.3*rng.Float64() - 0.15
				}
			}
			for j := range viol {
				viol[j], colMin[j] = true, -1e300
			}
			gate.check(d, &x, active, served, base, tol, colMin, viol)
			d.gateColumns(wantMin, wantViol, supp, served, in.Workload, base, tol)
			for a := 0; a < nI; a++ {
				kept += gate.n[a]
				lists++
			}
			for j := 0; j < nJ; j++ {
				if active[j] {
					continue
				}
				theta := max(0, colMin[j])
				if viol[j] != wantViol[j] || !viol[j] && math.Float64bits(theta) != math.Float64bits(max(0, wantMin[j])) {
					t.Fatalf("trial %d round %d user %d: gate violated=%v θ=%v, streaming pass %v θ=%v",
						trial, round, j, viol[j], theta, wantViol[j], max(0, wantMin[j]))
				}
				k := gate.kappa[j]
				switch {
				case in.Workload[j] == 0:
					cases["zero workload"]++
					continue
				case k == gate.kLo || k == gate.kHi:
					cases["κ at an end"]++
				}
				refTheta, refViol := d.gateColumn(j, in.Workload, base, tol)
				if viol[j] != refViol || !viol[j] && math.Float64bits(theta) != math.Float64bits(refTheta) {
					t.Fatalf("trial %d round %d user %d: gate violated=%v θ=%v, gateColumn %v θ=%v",
						trial, round, j, viol[j], theta, refViol, refTheta)
				}
				switch {
				case viol[j]:
					cases["violated"]++
				case overServed(served[j], in.Workload[j], tol):
					cases["certified over-served"]++
				default:
					cases["certified"]++
				}
			}
		}
	}
	t.Logf("%v; %.2f clouds listed per attachment", cases, float64(kept)/float64(lists))
	for name, floor := range map[string]int{
		"WSq = 0": 50, "equal slopes": 100, "cancelling terms": 100, "κ at an end": 1000, "ν > 0": 500, "near tie": 150, "near tie, parallel": 60, "rounding disagreement": 20,
		"zero workload": 100, "violated": 1000, "certified": 1000, "certified over-served": 30,
	} {
		if cases[name] < floor {
			t.Errorf("%s: %d cases, want at least %d", name, cases[name], floor)
		}
	}
}

// greedyInit gives the instance a pre-horizon placement — every user whole
// on its slot-0 cloud while capacity lasts, then on the clouds with room in
// index order — so a large instance's slot 0 starts from a feasible point
// instead of solving a transportation problem for one.
func greedyInit(in *model.Instance) {
	free := append([]float64(nil), in.Capacity...)
	init := model.NewAlloc(in.I, in.J)
	for j, at := range in.Attach[0] {
		need := in.Workload[j]
		for i := at; need > 0; i = (i + 1) % in.I {
			amt := math.Min(need, free[i])
			init.X[i*in.J+j] += amt
			free[i] -= amt
			need -= amt
		}
	}
	in.Init = &init
}

// TestStepPhasesSumToWallTime is the ROADMAP's decomposition requirement
// on the slot advance: over the warm slots of a J = 2000 low-churn run the
// bind, solve and commit phases of StepDiag account for the wall time
// measured around Step to within 5%, on the single program and on the
// sharded path, and the certify share lies inside the solve. The budgets
// are a few iterations: the phases are timed, not the answers.
func TestStepPhasesSumToWallTime(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 2000, Horizon: 6, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	withChurn(in, 0.01, rand.New(rand.NewSource(32)))
	greedyInit(in)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Solver:     alm.Options{MaxOuter: 3, InnerIters: 40, FeasTol: 1e-7, DualTol: 5e-2, ObjTol: 1e-2, Penalty: 2},
		Candidates: 3, CandidateTol: 1, Incremental: true, IncrementalTol: 1,
	}
	sharded := opts
	sharded.Shards, sharded.ShardMaxIters, sharded.Incremental = 2, 2, false
	for _, tc := range []struct {
		name string
		opts Options
	}{{"single", opts}, {"sharded", sharded}} {
		t.Run(tc.name, func(t *testing.T) {
			alg := NewOnlineApprox(in, tc.opts)
			if _, err := alg.Step(0); err != nil {
				t.Fatal(err)
			}
			var wall, phases float64
			for tt := 1; tt < in.T; tt++ {
				start := time.Now()
				if _, err := alg.Step(tt); err != nil {
					t.Fatal(err)
				}
				wall += time.Since(start).Seconds()
				d := alg.LastStepDiag()
				if d.BindSeconds <= 0 || d.Seconds <= 0 || d.CommitSeconds <= 0 {
					t.Fatalf("slot %d: phase missing from %+v", tt, d)
				}
				if d.CertifySeconds <= 0 || d.CertifySeconds > d.Seconds {
					t.Fatalf("slot %d: certify %g s outside the solve's %g s", tt, d.CertifySeconds, d.Seconds)
				}
				phases += d.BindSeconds + d.Seconds + d.CommitSeconds
			}
			if gap := math.Abs(wall-phases) / wall; gap > 0.05 {
				t.Errorf("bind + solve + commit = %.3f ms of %.3f ms wall (%.1f%% unaccounted)",
					1e3*phases, 1e3*wall, 100*gap)
			}
		})
	}
}
