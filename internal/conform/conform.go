// Package conform is the paper-conformance oracle: one reusable checker
// that takes any (instance, schedule, solver diagnostics) triple and
// verifies every guarantee the paper proves about the pipeline's output —
// per-slot feasibility (Theorem 1), the validity of the dual certificate
// and the competitive-ratio bound r = 1 + γ|I| (Lemmas 2–6, Theorem 2),
// the Lemma-1 P0→P1 gap identity with its σ = Σ_i b_i^out·C_i bound, and
// basic numeric hygiene (no NaN/Inf, no negative allocations or costs).
//
// The oracle returns structured Violations instead of failing a test
// directly, so the same code path serves unit tests, Go fuzz targets, the
// metamorphic suite, benchmarks, and the production simulation harness
// (sim.Execute consults it on every run, and prices the run from its
// walk).
package conform

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strings"

	"edgealloc/internal/model"
)

// Kind labels the guarantee a violation breaks.
type Kind string

const (
	// KindShape: the schedule's horizon or slot dimensions disagree with
	// the instance.
	KindShape Kind = "shape"
	// KindNumeric: a NaN or Inf appeared in an allocation or a derived
	// cost.
	KindNumeric Kind = "numeric"
	// KindNegative: an allocation entry is below zero beyond tolerance.
	KindNegative Kind = "negative"
	// KindDemand: a user is served less than its workload (Theorem 1,
	// demand side).
	KindDemand Kind = "demand"
	// KindCapacity: a cloud is loaded beyond its capacity (Theorem 1,
	// capacity side).
	KindCapacity Kind = "capacity"
	// KindGap: the Lemma-1 relation between the P0 and P1 objectives is
	// violated — either the exact telescoping identity
	// P1 − P0 = w_mg·Σ_i b_i^out Σ_j (x_{ij,T} − x_{ij,0}) or the bound
	// |P1 − P0| ≤ w_mg·σ.
	KindGap Kind = "lemma1-gap"
	// KindDualCert: the dual certificate's own feasibility residual
	// (Lemma 2's constraints (14a)–(14e)) exceeds tolerance.
	KindDualCert Kind = "dual-certificate"
	// KindLowerBound: a certified lower bound exceeds the achieved cost —
	// weak duality broken, the certificate is lying.
	KindLowerBound Kind = "lower-bound"
	// KindRatio: the run breaks Theorem 2's parameterized guarantee —
	// either r = 1 + γ|I| < 1 or achieved cost > r·(certified bound).
	KindRatio Kind = "competitive-ratio"
)

// Violation is one broken guarantee, locatable and machine-readable.
type Violation struct {
	Kind Kind
	// Slot is the offending time slot, or -1 for horizon-level checks.
	Slot int
	// Index is the offending user/cloud index, or -1 when not applicable.
	Index int
	// Got and Bound are the measured value and the limit it broke.
	Got, Bound float64
	// Detail is a human-readable one-liner.
	Detail string
}

func (v Violation) String() string {
	loc := ""
	if v.Slot >= 0 {
		loc = fmt.Sprintf(" slot=%d", v.Slot)
	}
	if v.Index >= 0 {
		loc += fmt.Sprintf(" index=%d", v.Index)
	}
	return fmt.Sprintf("[%s]%s %s (got %g, bound %g)", v.Kind, loc, v.Detail, v.Got, v.Bound)
}

// LogValue implements slog.LogValuer: a Violation logged through slog
// renders as structured fields (kind, slot, index, got, bound, detail)
// instead of one opaque string, so daemon log pipelines can filter and
// aggregate oracle findings by guarantee kind.
func (v Violation) LogValue() slog.Value {
	return slog.GroupValue(
		slog.String("kind", string(v.Kind)),
		slog.Int("slot", v.Slot),
		slog.Int("index", v.Index),
		slog.Float64("got", v.Got),
		slog.Float64("bound", v.Bound),
		slog.String("detail", v.Detail),
	)
}

// Diagnostics carries the solver-side evidence the oracle can cross-check
// against the realized schedule: the dual certificate's bounds and
// residual (core.Certificate in the production pipeline) and Theorem 2's
// parameterized ratio. The struct is deliberately solver-agnostic so the
// oracle depends only on the model layer.
type Diagnostics struct {
	// HasCertificate gates the certificate checks; the other fields are
	// ignored without it (RatioBound excepted, see below).
	HasCertificate bool
	// LowerBoundP0 and LowerBoundP1 are the certified lower bounds on
	// OPT(P0) and OPT(P1), both including the access-delay constant.
	LowerBoundP0, LowerBoundP1 float64
	// DualResidual is the worst violation of the dual constraints
	// (14a)–(14e) by the certificate's constructed point.
	DualResidual float64
	// NuCharge is the capacity-dual price Σ_t Σ_i C_i·ν_{i,t} ≥ 0 already
	// deducted from the lower bounds. The Theorem-2 comparison measures
	// the achieved cost against r·(LowerBoundP1 + NuCharge): the paper's
	// primal-dual chain bounds cost by r times the undeducted
	// stationarity value, while the deduction itself is bound slack from
	// capacity binding that the algorithm is not charged for.
	NuCharge float64
	// RatioBound is Theorem 2's r = 1 + γ|I| for the run's ε parameters;
	// 0 skips the ratio checks.
	RatioBound float64
}

// Options tunes the oracle's tolerances. Zero values take defaults.
type Options struct {
	// DualTol bounds the certificate's own feasibility residual
	// (default 1e-5; the construction is exact up to float round-off).
	DualTol float64
}

const (
	// feasTol is the absolute feasibility tolerance, scaled by
	// 1 + |constraint| per row: the harness-wide tolerance the
	// first-order solvers meet with two orders of margin.
	feasTol = 1e-4
	// costTol is the relative tolerance on cost identities such as the
	// Lemma-1 gap.
	costTol = 1e-6
	// maxViolations caps how many violations are collected before the
	// oracle stops looking; the count keeps pathological inputs from
	// producing megabyte error messages.
	maxViolations = 32
)

func (o Options) withDefaults() Options {
	if o.DualTol == 0 {
		o.DualTol = 1e-5
	}
	return o
}

// Report is the oracle's structured outcome.
type Report struct {
	Violations []Violation
	// Truncated reports that maxViolations (32) were collected and later checks
	// were skipped.
	Truncated bool
	// BreakdownP0 and BreakdownP1 are the schedule's cost breakdowns under
	// the two objectives, Evaluate's and EvaluateP1's bit for bit, computed
	// for the gap check and exposed so callers need not re-evaluate. Valid
	// only when the shape checks passed.
	BreakdownP0, BreakdownP1 model.Breakdown
}

// OK reports a violation-free run.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Counts tallies the collected violations by guarantee kind — the shape
// the telemetry layer exports (one counter series per kind). Nil for a
// clean report.
func (r *Report) Counts() map[Kind]int {
	if r.OK() {
		return nil
	}
	counts := make(map[Kind]int)
	for _, v := range r.Violations {
		counts[v.Kind]++
	}
	return counts
}

// Log emits one structured warning line per collected violation to l,
// tagging each with the run label so concurrent runs stay
// distinguishable in daemon logs.
func (r *Report) Log(l *slog.Logger, run string) {
	for _, v := range r.Violations {
		l.Warn("conformance violation", "run", run, "violation", v)
	}
	if r.Truncated {
		l.Warn("conformance report truncated", "run", run, "collected", len(r.Violations))
	}
}

// ErrNonConformant is wrapped by every error the oracle returns, so
// callers can errors.Is on conformance failures specifically.
var ErrNonConformant = errors.New("conform: guarantee violated")

// Err returns nil for a clean report, or an error wrapping
// ErrNonConformant that lists every collected violation.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d violation(s)", len(r.Violations))
	if r.Truncated {
		b.WriteString(" (truncated)")
	}
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return fmt.Errorf("%w: %s", ErrNonConformant, b.String())
}

// checker accumulates violations up to the cap.
type checker struct {
	rep  *Report
	opts Options
	// capacityTight records whether any cloud runs at capacity (within
	// feasTol) at the realized schedule. Where capacity binds, the
	// explicit rows added to P2 (DESIGN.md finding 1: Theorem 1's
	// feasibility claim has a gap) steer the solution away from the pure
	// regularized program the paper's primal-dual chain analyzes, so the
	// Theorem-2 cost comparison is only enforced on slack runs.
	capacityTight bool
}

func (c *checker) add(v Violation) bool {
	if len(c.rep.Violations) >= maxViolations {
		c.rep.Truncated = true
		return false
	}
	c.rep.Violations = append(c.rep.Violations, v)
	return true
}

// Check is CheckWalk over a dense schedule.
func Check(in *model.Instance, s model.Schedule, diag *Diagnostics, opts Options) *Report {
	return CheckWalk(in, s.Walk, diag, opts)
}

// CheckWalk runs every applicable guarantee check of the paper against
// the realized schedule, read through walk so the caller need not hold it
// whole, and the solver's diagnostics. diag may be nil when no
// certificate is available; the schedule-level checks always run. A walk
// that yields a slot of the wrong shape, or another number of slots than
// the horizon, gets a shape violation after those the slots before it
// drew, and no horizon-level check; slots past the horizon are counted,
// never checked or priced.
func CheckWalk(in *model.Instance, walk model.Walk, diag *Diagnostics, opts Options) *Report {
	c := &checker{rep: &Report{}, opts: opts.withDefaults()}
	return c.run(in, walk, diag)
}

// horizon records a schedule of n slots on an instance of another horizon.
func (c *checker) horizon(in *model.Instance, n int) {
	c.add(Violation{Kind: KindShape, Slot: -1, Index: -1,
		Got: float64(n), Bound: float64(in.T),
		Detail: "schedule horizon differs from instance"})
}

// slotShape verifies slot t's dimensions, recording a violation if they
// are wrong.
func (c *checker) slotShape(in *model.Instance, t int, x model.Alloc) bool {
	if x.I == in.I && x.J == in.J && len(x.X) == in.I*in.J {
		return true
	}
	c.add(Violation{Kind: KindShape, Slot: t, Index: -1,
		Got: float64(len(x.X)), Bound: float64(in.I * in.J),
		Detail: fmt.Sprintf("slot allocation is %dx%d, want %dx%d", x.I, x.J, in.I, in.J)})
	return false
}

// run checks a schedule read through walk: one pass runs every slot's
// Theorem-1 checks (checkSlot, until the violation cap is hit) and prices
// the slot for the gap check, which follows with the certificate's. A
// slot of the wrong shape ends the pass.
func (c *checker) run(in *model.Instance, walk model.Walk, diag *Diagnostics) *Report {
	// b0 and b1 are Evaluate's and EvaluateP1's breakdowns, bit for bit:
	// P1's static terms are P0's (SlotCost sums them in SlotStatic's
	// order), so only P1's dynamic terms are priced again.
	var b0, b1 model.Breakdown
	prev := in.InitialAlloc()
	served := make([]float64, in.J)
	used := make([]float64, in.I)
	n, ok := 0, true
	walk(func(t int, x model.Alloc) bool {
		if n++; n > in.T {
			// A slot past the horizon has no prices to index: it is only
			// counted, for the horizon violation below.
			return true
		}
		if ok = c.slotShape(in, t, x); !ok {
			return false
		}
		if !c.rep.Truncated {
			c.checkSlot(in, t, x, served, used)
		}
		d := in.SlotCost(t, prev, x)
		rc, mg := in.SlotDynamicP1(prev, x)
		b0.Add(d)
		b1.Add(model.Breakdown{Op: d.Op, Sq: d.Sq, Rc: rc, Mg: mg})
		prev = x
		return true
	})
	if !ok {
		return c.rep
	}
	if n != in.T {
		c.horizon(in, n)
		return c.rep
	}
	c.checkGap(in, b0, b1, prev)
	if diag != nil {
		c.checkCertificate(in, diag)
	}
	return c.rep
}

// checkSlot runs slot t's Theorem-1 checks: numeric hygiene,
// nonnegativity, demand satisfaction, and capacity. One pass over the
// grid checks every entry and sums both totals, into the scratch served
// and used, each in the order UserTotalsInto and CloudTotalsInto sum it.
func (c *checker) checkSlot(in *model.Instance, t int, x model.Alloc, served, used []float64) {
	clear(served)
	for i := range used {
		row := x.X[i*in.J : (i+1)*in.J]
		tot := 0.0
		for j, v := range row {
			served[j] += v
			tot += v
			if v >= -feasTol && v <= math.MaxFloat64 {
				continue // finite and not negative beyond tolerance
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				if !c.add(Violation{Kind: KindNumeric, Slot: t, Index: i,
					Got: v, Detail: fmt.Sprintf("x[%d][%d] is not finite", i, j)}) {
					return
				}
				continue
			}
			if v < -feasTol {
				if !c.add(Violation{Kind: KindNegative, Slot: t, Index: i,
					Got: v, Bound: -feasTol,
					Detail: fmt.Sprintf("x[%d][%d] negative", i, j)}) {
					return
				}
			}
		}
		used[i] = tot
	}
	for j, got := range served {
		if bound := in.Workload[j] - feasTol*(1+in.Workload[j]); got < bound || math.IsNaN(got) {
			if !c.add(Violation{Kind: KindDemand, Slot: t, Index: j,
				Got: got, Bound: in.Workload[j],
				Detail: "user served below workload (Theorem 1)"}) {
				return
			}
		}
	}
	for i, got := range used {
		if got >= in.Capacity[i]-feasTol*(1+in.Capacity[i]) {
			c.capacityTight = true
		}
		if bound := in.Capacity[i] + feasTol*(1+in.Capacity[i]); got > bound || math.IsNaN(got) {
			if !c.add(Violation{Kind: KindCapacity, Slot: t, Index: i,
				Got: got, Bound: in.Capacity[i],
				Detail: "cloud loaded beyond capacity (Theorem 1)"}) {
				return
			}
		}
	}
}

// checkGap verifies Lemma 1 differentially: the P0 and P1 evaluations of
// the schedule ending in last — two independent cost implementations —
// must satisfy the exact telescoping identity
//
//	P1 − P0 = w_mg·Σ_i b_i^out·Σ_j (x_{ij,T} − x_{ij,0}),
//
// and the gap must obey |P1 − P0| ≤ w_mg·σ with σ = Σ_i b_i^out·C_i
// (the Lemma's additive constant; the bound follows from per-slot
// capacity feasibility).
func (c *checker) checkGap(in *model.Instance, b0, b1 model.Breakdown, last model.Alloc) {
	c.rep.BreakdownP0, c.rep.BreakdownP1 = b0, b1

	for _, v := range []float64{b0.Op, b0.Sq, b0.Rc, b0.Mg, b1.Mg} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < -costTol {
			c.add(Violation{Kind: KindNumeric, Slot: -1, Index: -1, Got: v,
				Detail: "cost component not finite and nonnegative"})
			return
		}
	}

	t0, t1 := in.Total(b0), in.Total(b1)
	gap := t1 - t0
	// The identity's right-hand side, straight from the allocations.
	init := in.InitialAlloc()
	want := 0.0
	for i := 0; i < in.I; i++ {
		d := 0.0
		for j := 0; j < in.J; j++ {
			d += last.At(i, j) - init.At(i, j)
		}
		want += in.MigOutPrice[i] * d
	}
	want *= in.WMg
	scale := 1 + math.Abs(t0) + math.Abs(t1)
	if math.Abs(gap-want) > costTol*scale {
		c.add(Violation{Kind: KindGap, Slot: -1, Index: -1, Got: gap, Bound: want,
			Detail: "P1−P0 gap disagrees with the Lemma-1 telescoping identity"})
	}
	sigma := in.WMg * in.Sigma()
	// Feasible schedules keep |Σ_j x_{ij}| ≤ C_i, so the identity implies
	// |gap| ≤ w_mg·σ; allow the feasibility tolerance on top.
	if bound := sigma + feasTol*scale; math.Abs(gap) > bound {
		c.add(Violation{Kind: KindGap, Slot: -1, Index: -1, Got: math.Abs(gap), Bound: sigma,
			Detail: "|P1−P0| exceeds the Lemma-1 bound w_mg·σ"})
	}
}

// checkCertificate validates the dual certificate against the achieved
// cost: its own residual must sit at round-off level (Lemma 2), both
// lower bounds must not exceed the corresponding achieved objectives
// (weak duality: ALG ≥ OPT ≥ bound), the P0/P1 bounds must differ by
// exactly the weighted Lemma-1 constant, and the achieved cost must stay
// within Theorem 2's r·(lower bound) whenever the ratio is supplied.
func (c *checker) checkCertificate(in *model.Instance, d *Diagnostics) {
	if d.RatioBound != 0 && d.RatioBound < 1 {
		c.add(Violation{Kind: KindRatio, Slot: -1, Index: -1, Got: d.RatioBound, Bound: 1,
			Detail: "Theorem-2 ratio r = 1 + γ|I| below 1"})
	}
	if !d.HasCertificate {
		return
	}
	for _, v := range []float64{d.LowerBoundP0, d.LowerBoundP1, d.DualResidual, d.NuCharge} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			c.add(Violation{Kind: KindNumeric, Slot: -1, Index: -1, Got: v,
				Detail: "certificate field not finite"})
			return
		}
	}
	if d.DualResidual > c.opts.DualTol {
		c.add(Violation{Kind: KindDualCert, Slot: -1, Index: -1,
			Got: d.DualResidual, Bound: c.opts.DualTol,
			Detail: "dual point violates constraints (14a)-(14e)"})
	}
	t0, t1 := in.Total(c.rep.BreakdownP0), in.Total(c.rep.BreakdownP1)
	if slack := costTol * (1 + math.Abs(t0)); d.LowerBoundP0 > t0+slack {
		c.add(Violation{Kind: KindLowerBound, Slot: -1, Index: -1,
			Got: d.LowerBoundP0, Bound: t0,
			Detail: "certified P0 lower bound exceeds achieved P0 cost"})
	}
	if slack := costTol * (1 + math.Abs(t1)); d.LowerBoundP1 > t1+slack {
		c.add(Violation{Kind: KindLowerBound, Slot: -1, Index: -1,
			Got: d.LowerBoundP1, Bound: t1,
			Detail: "certified P1 lower bound exceeds achieved P1 cost"})
	}
	// Lemma 1 on the bounds themselves: LB(P1) − LB(P0) = w_mg·σ by
	// construction of the gap-preserving transformation.
	sigma := in.WMg * in.Sigma()
	if gap := d.LowerBoundP1 - d.LowerBoundP0; math.Abs(gap-sigma) > costTol*(1+sigma) {
		c.add(Violation{Kind: KindGap, Slot: -1, Index: -1, Got: gap, Bound: sigma,
			Detail: "certificate's P0/P1 bounds do not differ by w_mg·σ"})
	}
	// Theorem 2 compares against the undeducted stationarity value
	// LB(P1) + NuCharge: the primal-dual chain (Lemmas 3–6) bounds the
	// cost by r times that value, while the ν deduction is certificate
	// slack from capacity binding, not part of the ratio guarantee. The
	// comparison is skipped entirely when capacity binds at the realized
	// schedule — there the explicit capacity rows (DESIGN.md finding 1)
	// move the solution off the pure regularized program the paper's
	// chain analyzes, and only the weaker cost ≤ r·OPT claim survives,
	// which a lower bound alone cannot falsify.
	if ref := d.LowerBoundP1 + d.NuCharge; d.RatioBound >= 1 && ref > 0 && !c.capacityTight {
		if limit := d.RatioBound * ref; t1 > limit*(1+costTol) {
			c.add(Violation{Kind: KindRatio, Slot: -1, Index: -1, Got: t1, Bound: limit,
				Detail: "achieved P1 cost exceeds r·(certified bound) (Theorem 2)"})
		}
	}
}
