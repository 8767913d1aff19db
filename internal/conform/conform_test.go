package conform_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"edgealloc/internal/conform"
	"edgealloc/internal/model"
)

// genInstance is the suite's canonical small instance.
func genInstance(t *testing.T) *model.Instance {
	t.Helper()
	return conform.GenInstance(conform.GenConfig{Seed: 7, I: 3, J: 4, T: 3})
}

// feasibleSchedule serves every user fully on its attached cloud, spilling
// to other clouds in index order when capacity fills.
func feasibleSchedule(in *model.Instance) model.Schedule {
	s := make(model.Schedule, in.T)
	for t := range s {
		x := model.NewAlloc(in.I, in.J)
		free := append([]float64(nil), in.Capacity...)
		for j := 0; j < in.J; j++ {
			need := in.Workload[j]
			for i := in.Attach[t][j]; need > 0; i = (i + 1) % in.I {
				take := math.Min(need, free[i])
				x.Set(i, j, x.At(i, j)+take)
				free[i] -= take
				need -= take
			}
		}
		s[t] = x
	}
	return s
}

// requireWalkReport requires CheckWalk over the schedule's walk to report
// exactly what Check reported for the schedule itself.
func requireWalkReport(t *testing.T, in *model.Instance, s model.Schedule, diag *conform.Diagnostics, opts conform.Options, want *conform.Report) {
	t.Helper()
	got := conform.CheckWalk(in, s.Walk, diag, opts)
	if g, w := fmt.Sprintf("%#v", *got), fmt.Sprintf("%#v", *want); g != w {
		t.Fatalf("CheckWalk reports\n%s\nCheck\n%s", g, w)
	}
}

func TestCheckCleanSchedule(t *testing.T) {
	in := genInstance(t)
	s := feasibleSchedule(in)
	rep := conform.Check(in, s, nil, conform.Options{})
	requireWalkReport(t, in, s, nil, conform.Options{}, rep)
	if !rep.OK() {
		t.Fatalf("clean schedule flagged: %v", rep.Err())
	}
	if rep.Err() != nil {
		t.Fatal("Err() non-nil on clean report")
	}
	// The report's breakdowns must match the model's evaluations.
	b0, err := in.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	if in.Total(rep.BreakdownP0) != in.Total(b0) {
		t.Errorf("BreakdownP0 total %g != Evaluate %g", in.Total(rep.BreakdownP0), in.Total(b0))
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	in := genInstance(t)
	tests := []struct {
		name   string
		mutate func(model.Schedule) model.Schedule
		want   conform.Kind
	}{
		{"short horizon", func(s model.Schedule) model.Schedule {
			return s[:len(s)-1]
		}, conform.KindShape},
		{"wrong slot shape", func(s model.Schedule) model.Schedule {
			s[1] = model.NewAlloc(in.I+1, in.J)
			return s
		}, conform.KindShape},
		{"nan entry", func(s model.Schedule) model.Schedule {
			s[0].Set(0, 0, math.NaN())
			return s
		}, conform.KindNumeric},
		{"inf entry", func(s model.Schedule) model.Schedule {
			s[0].Set(0, 0, math.Inf(1))
			return s
		}, conform.KindNumeric},
		{"negative entry", func(s model.Schedule) model.Schedule {
			s[2].Set(1, 0, -0.5)
			return s
		}, conform.KindNegative},
		{"demand shortfall", func(s model.Schedule) model.Schedule {
			for i := 0; i < in.I; i++ {
				s[1].Set(i, 2, 0)
			}
			return s
		}, conform.KindDemand},
		{"capacity overflow", func(s model.Schedule) model.Schedule {
			s[1].Set(0, 0, s[1].At(0, 0)+2*in.Capacity[0])
			return s
		}, conform.KindCapacity},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := tt.mutate(feasibleSchedule(in))
			rep := conform.Check(in, s, nil, conform.Options{})
			requireWalkReport(t, in, s, nil, conform.Options{}, rep)
			if rep.OK() {
				t.Fatal("violation not detected")
			}
			found := false
			for _, v := range rep.Violations {
				if v.Kind == tt.want {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s violation in %v", tt.want, rep.Err())
			}
			if !errors.Is(rep.Err(), conform.ErrNonConformant) {
				t.Error("Err() does not wrap ErrNonConformant")
			}
		})
	}
}

// The capacity overflow also breaks the Lemma-1 |gap| ≤ w_mg·σ bound when
// the overload dwarfs σ; check the gap family fires too.
func TestCheckGapBound(t *testing.T) {
	in := genInstance(t)
	s := feasibleSchedule(in)
	// Park an absurd load on cloud 0 in the final slot: the identity
	// still holds, but the gap now exceeds σ (and capacity breaks, which
	// is what admits such a schedule's gap in the first place).
	huge := 100 * in.Sigma() / (in.MigOutPrice[0] + 1e-9)
	s[in.T-1].Set(0, 0, s[in.T-1].At(0, 0)+huge)
	rep := conform.Check(in, s, nil, conform.Options{})
	kinds := map[conform.Kind]bool{}
	for _, v := range rep.Violations {
		kinds[v.Kind] = true
	}
	if !kinds[conform.KindGap] {
		t.Errorf("gap bound not flagged: %v", rep.Err())
	}
	if !kinds[conform.KindCapacity] {
		t.Errorf("capacity not flagged: %v", rep.Err())
	}
}

func TestCheckCertificateDiagnostics(t *testing.T) {
	in := genInstance(t)
	s := feasibleSchedule(in)
	// Leave every cloud strictly slack: the Theorem-2 comparison is
	// enforced only on runs where capacity never binds.
	for i := range in.Capacity {
		in.Capacity[i] *= 10
	}
	b0, _ := in.Evaluate(s)
	b1, _ := in.EvaluateP1(s)
	t0, t1 := in.Total(b0), in.Total(b1)
	sigma := in.WMg * in.Sigma()

	good := conform.Diagnostics{
		HasCertificate: true,
		LowerBoundP0:   0.5 * t0,
		LowerBoundP1:   0.5*t0 + sigma,
		DualResidual:   1e-9,
		RatioBound:     1e6,
	}
	if rep := conform.Check(in, s, &good, conform.Options{}); !rep.OK() {
		t.Fatalf("valid diagnostics flagged: %v", rep.Err())
	}

	tests := []struct {
		name   string
		mutate func(conform.Diagnostics) conform.Diagnostics
		want   conform.Kind
	}{
		{"lower bound above cost", func(d conform.Diagnostics) conform.Diagnostics {
			d.LowerBoundP0 = 2 * t0
			d.LowerBoundP1 = 2*t0 + sigma
			return d
		}, conform.KindLowerBound},
		{"dual residual too large", func(d conform.Diagnostics) conform.Diagnostics {
			d.DualResidual = 1
			return d
		}, conform.KindDualCert},
		{"bounds break the sigma relation", func(d conform.Diagnostics) conform.Diagnostics {
			d.LowerBoundP1 = d.LowerBoundP0 + 2*sigma + 1
			return d
		}, conform.KindGap},
		{"ratio below one", func(d conform.Diagnostics) conform.Diagnostics {
			d.RatioBound = 0.5
			return d
		}, conform.KindRatio},
		{"cost exceeds ratio times bound", func(d conform.Diagnostics) conform.Diagnostics {
			d.RatioBound = 1.0000001
			d.LowerBoundP0 = t1 / 2
			d.LowerBoundP1 = t1 / 2
			return d
		}, conform.KindRatio},
		{"nan bound", func(d conform.Diagnostics) conform.Diagnostics {
			d.LowerBoundP0 = math.NaN()
			return d
		}, conform.KindNumeric},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := tt.mutate(good)
			rep := conform.Check(in, s, &d, conform.Options{})
			requireWalkReport(t, in, s, &d, conform.Options{}, rep)
			found := false
			for _, v := range rep.Violations {
				if v.Kind == tt.want {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s violation in %v", tt.want, rep.Err())
			}
		})
	}

	// The ν deduction is certificate slack, not ratio budget: a deducted
	// bound that alone would fail the Theorem-2 comparison must pass once
	// NuCharge restores the undeducted stationarity value.
	rescued := good
	rescued.RatioBound = 1.0000001
	rescued.LowerBoundP0 = t1 / 2
	rescued.LowerBoundP1 = t1/2 + sigma
	rescued.NuCharge = t1
	rep := conform.Check(in, s, &rescued, conform.Options{})
	for _, v := range rep.Violations {
		if v.Kind == conform.KindRatio {
			t.Errorf("NuCharge-adjusted ratio flagged: %v", v)
		}
	}
}

// Where capacity binds at the realized schedule, the explicit capacity
// rows move the solution off the pure regularized program the paper's
// primal-dual chain analyzes (DESIGN.md finding 1), so the Theorem-2
// cost comparison must be skipped rather than raise a false alarm.
func TestCheckRatioSkippedWhenCapacityBinds(t *testing.T) {
	in := genInstance(t)
	s := feasibleSchedule(in) // attach-then-spill loads clouds to capacity
	b1, _ := in.EvaluateP1(s)
	t1 := in.Total(b1)
	sigma := in.WMg * in.Sigma()
	d := conform.Diagnostics{
		HasCertificate: true,
		LowerBoundP0:   t1 / 4,
		LowerBoundP1:   t1/4 + sigma,
		DualResidual:   1e-9,
		RatioBound:     1.0000001, // r·LB ≪ cost: would trip on a slack run
	}
	rep := conform.Check(in, s, &d, conform.Options{})
	for _, v := range rep.Violations {
		if v.Kind == conform.KindRatio {
			t.Errorf("ratio comparison not skipped on binding schedule: %v", v)
		}
	}
}

// A flood of bad entries must truncate at MaxViolations instead of
// producing an unbounded report.
func TestCheckTruncates(t *testing.T) {
	in := genInstance(t)
	s := feasibleSchedule(in)
	for t := range s {
		for k := range s[t].X {
			s[t].X[k] = math.NaN()
		}
	}
	rep := conform.Check(in, s, nil, conform.Options{MaxViolations: 5})
	requireWalkReport(t, in, s, nil, conform.Options{MaxViolations: 5}, rep)
	if len(rep.Violations) != 5 || !rep.Truncated {
		t.Fatalf("got %d violations (truncated=%v), want 5 truncated",
			len(rep.Violations), rep.Truncated)
	}
	if !strings.Contains(rep.Err().Error(), "truncated") {
		t.Error("error does not mention truncation")
	}
}

func TestViolationString(t *testing.T) {
	v := conform.Violation{Kind: conform.KindDemand, Slot: 3, Index: 1,
		Got: 0.5, Bound: 1, Detail: "user served below workload (Theorem 1)"}
	s := v.String()
	for _, want := range []string{"demand", "slot=3", "index=1", "0.5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestGenInstanceDeterministicAndValid(t *testing.T) {
	a := conform.GenInstance(conform.GenConfig{Seed: 42, I: 100, J: -3, T: 0, Tight: true})
	b := conform.GenInstance(conform.GenConfig{Seed: 42, I: 100, J: -3, T: 0, Tight: true})
	if a.I != b.I || a.J != b.J || a.T != b.T {
		t.Fatalf("generator not deterministic: %dx%dx%d vs %dx%dx%d", a.I, a.J, a.T, b.I, b.J, b.T)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.I < 2 || a.I > 6 || a.J < 1 || a.J > 8 || a.T < 1 || a.T > 6 {
		t.Errorf("dimensions %dx%dx%d outside clamp ranges", a.I, a.J, a.T)
	}
	if z := conform.GenInstance(conform.GenConfig{Seed: 1, ZeroSq: true}); z.WSq != 0 {
		t.Errorf("ZeroSq instance has WSq=%g", z.WSq)
	}
}
