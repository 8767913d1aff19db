package conform

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
)

// referenceCheck is Check built the direct way: a hygiene scan and two
// total passes per slot, and the breakdowns from Evaluate and EvaluateP1.
// It is the reference TestCheckMatchesReference pins Check's fused passes
// to, on schedules of the instance's shape.
func referenceCheck(in *model.Instance, s model.Schedule, diag *Diagnostics, opts Options) *Report {
	opts = opts.withDefaults()
	c := &checker{rep: &Report{}, opts: opts}
	c.referenceSlots(in, s)
	c.referenceGap(in, s)
	if diag != nil {
		c.checkCertificate(in, diag)
	}
	return c.rep
}

func (c *checker) referenceSlots(in *model.Instance, s model.Schedule) {
	tol := c.opts.FeasTol
	served := make([]float64, in.J)
	used := make([]float64, in.I)
	for t, x := range s {
		if c.rep.Truncated {
			return
		}
		for k, v := range x.X {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				if !c.add(Violation{Kind: KindNumeric, Slot: t, Index: k / in.J,
					Got: v, Detail: fmt.Sprintf("x[%d][%d] is not finite", k/in.J, k%in.J)}) {
					return
				}
				continue
			}
			if v < -tol {
				if !c.add(Violation{Kind: KindNegative, Slot: t, Index: k / in.J,
					Got: v, Bound: -tol,
					Detail: fmt.Sprintf("x[%d][%d] negative", k/in.J, k%in.J)}) {
					return
				}
			}
		}
		x.UserTotalsInto(served)
		for j, got := range served {
			if bound := in.Workload[j] - tol*(1+in.Workload[j]); got < bound || math.IsNaN(got) {
				if !c.add(Violation{Kind: KindDemand, Slot: t, Index: j,
					Got: got, Bound: in.Workload[j],
					Detail: "user served below workload (Theorem 1)"}) {
					return
				}
			}
		}
		x.CloudTotalsInto(used)
		for i, got := range used {
			if got >= in.Capacity[i]-tol*(1+in.Capacity[i]) {
				c.capacityTight = true
			}
			if bound := in.Capacity[i] + tol*(1+in.Capacity[i]); got > bound || math.IsNaN(got) {
				if !c.add(Violation{Kind: KindCapacity, Slot: t, Index: i,
					Got: got, Bound: in.Capacity[i],
					Detail: "cloud loaded beyond capacity (Theorem 1)"}) {
					return
				}
			}
		}
	}
}

// referenceGap is checkGap with the breakdowns Evaluate and EvaluateP1
// return.
func (c *checker) referenceGap(in *model.Instance, s model.Schedule) {
	b0, err := in.Evaluate(s)
	if err != nil {
		c.add(Violation{Kind: KindShape, Slot: -1, Index: -1, Detail: err.Error()})
		return
	}
	b1, err := in.EvaluateP1(s)
	if err != nil {
		c.add(Violation{Kind: KindShape, Slot: -1, Index: -1, Detail: err.Error()})
		return
	}
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
	last := s[len(s)-1]
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
	if bound := sigma + c.opts.FeasTol*scale; math.Abs(gap) > bound {
		c.add(Violation{Kind: KindGap, Slot: -1, Index: -1, Got: math.Abs(gap), Bound: sigma,
			Detail: "|P1−P0| exceeds the Lemma-1 bound w_mg·σ"})
	}
}

// reportBits renders a report whole, every float as its bit pattern.
func reportBits(r *Report) string {
	var b strings.Builder
	f := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "%s %d %d %s %s %q\n", v.Kind, v.Slot, v.Index, f(v.Got), f(v.Bound), v.Detail)
	}
	fmt.Fprintf(&b, "truncated %v\n", r.Truncated)
	for _, d := range []model.Breakdown{r.BreakdownP0, r.BreakdownP1} {
		fmt.Fprintf(&b, "%s %s %s %s\n", f(d.Op), f(d.Sq), f(d.Rc), f(d.Mg))
	}
	return b.String()
}

// TestCheckMatchesReference pins Check's whole report — the violations in
// order, truncation, both breakdowns, every float bit for bit — to
// referenceCheck, on the online algorithm's schedules with their
// certificates and on copies broken every way the slot checks look for,
// under default, tight, capped and NaN tolerances.
func TestCheckMatchesReference(t *testing.T) {
	rome, _, err := scenario.Rome(scenario.Config{Users: 12, Horizon: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		name string
		in   *model.Instance
		s    model.Schedule
		diag *Diagnostics
	}
	var runs []run
	for _, r := range []run{
		{name: "rome", in: rome},
		{name: "generated", in: GenInstance(GenConfig{Seed: 7, I: 4, J: 6, T: 4})},
		{name: "generated tight", in: GenInstance(GenConfig{Seed: 56, I: 6, J: 3, T: 2, Tight: true})},
	} {
		alg := core.NewOnlineApprox(r.in, core.Options{})
		s, err := alg.Run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		cert, err := alg.Certificate()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		r.s, r.diag = s, &Diagnostics{
			HasCertificate: true,
			LowerBoundP0:   cert.LowerBoundP0(),
			LowerBoundP1:   cert.LowerBoundP1(),
			DualResidual:   cert.Feasibility.Max(),
			NuCharge:       cert.NuCharge,
			RatioBound:     alg.CompetitiveRatioBound(),
		}
		runs = append(runs, r)
	}

	mutations := []struct {
		name string
		f    func(in *model.Instance, s model.Schedule)
	}{
		{"as run", func(*model.Instance, model.Schedule) {}},
		{"NaN", func(in *model.Instance, s model.Schedule) { s[0].X[in.J+1] = math.NaN() }},
		{"±Inf", func(in *model.Instance, s model.Schedule) {
			s[1].X[0], s[len(s)-1].X[len(s[0].X)-1] = math.Inf(1), math.Inf(-1)
		}},
		{"negative", func(in *model.Instance, s model.Schedule) { s[len(s)-1].X[in.J] = -0.5 }},
		{"signed zeros", func(in *model.Instance, s model.Schedule) {
			for _, x := range s {
				for k, v := range x.X {
					if v == 0 {
						x.X[k] = math.Copysign(0, -1)
					}
				}
			}
		}},
		{"demand shortfall", func(in *model.Instance, s model.Schedule) {
			for i := 0; i < in.I; i++ {
				s[1].Set(i, in.J-1, 0)
			}
		}},
		{"capacity overflow", func(in *model.Instance, s model.Schedule) {
			s[1].Set(0, 0, s[1].At(0, 0)+2*in.Capacity[0])
		}},
		{"every entry NaN", func(in *model.Instance, s model.Schedule) {
			for _, x := range s {
				for k := range x.X {
					x.X[k] = math.NaN()
				}
			}
		}},
		{"every user short", func(in *model.Instance, s model.Schedule) {
			// Past the cap on the Rome run (11 short users, one
			// negative entry and one overloaded cloud a slot), so it
			// truncates in a later slot's demand pass, not in the first
			// hygiene scan as "every entry NaN" does.
			for tt, x := range s {
				clear(x.X)
				x.X[tt%len(x.X)] = -1
				x.Set(0, 0, 3*in.Capacity[0])
			}
		}},
		{"every kind", func(in *model.Instance, s model.Schedule) {
			for tt, x := range s {
				x.X[tt%len(x.X)] = -1
				x.Set(0, 0, x.At(0, 0)+3*in.Capacity[0])
				for i := 0; i < in.I; i++ {
					x.Set(i, in.J-1, 0)
				}
			}
			s[0].X[1] = math.NaN()
		}},
	}
	for _, r := range runs {
		for _, m := range mutations {
			s := make(model.Schedule, len(r.s))
			for tt, x := range r.s {
				s[tt] = x.Clone()
			}
			m.f(r.in, s)
			for _, opts := range []Options{{}, {FeasTol: 1e-12}, {FeasTol: math.NaN()}} {
				for _, diag := range []*Diagnostics{nil, r.diag} {
					got, want := reportBits(Check(r.in, s, diag, opts)), reportBits(referenceCheck(r.in, s, diag, opts))
					if got != want {
						t.Errorf("%s, %s, %+v, certificate %v: report\n%s\nwant\n%s", r.name, m.name, opts, diag != nil, got, want)
					}
				}
			}
		}
	}
}
