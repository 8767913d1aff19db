package baseline

import (
	"math"
	"testing"

	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
)

const feasTol = 1e-5

// totalOf evaluates a schedule's weighted P0 cost, failing the test on error.
func totalOf(t *testing.T, in *model.Instance, s model.Schedule) float64 {
	t.Helper()
	b, err := in.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	return in.Total(b)
}

func smallRome(t *testing.T, users, horizon int, seed int64) *model.Instance {
	t.Helper()
	in, _, err := scenario.Rome(scenario.Config{Users: users, Horizon: horizon, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestExactOfflineReproducesFig1Optima(t *testing.T) {
	a := model.ToyExampleA()
	_, objA, err := ExactOffline(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(objA-9.6) > 1e-6 {
		t.Errorf("example (a) offline optimum = %g, want 9.6", objA)
	}
	b := model.ToyExampleB()
	_, objB, err := ExactOffline(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(objB-9.5) > 1e-6 {
		t.Errorf("example (b) offline optimum = %g, want 9.5", objB)
	}
}

func TestGreedyReproducesFig1Traps(t *testing.T) {
	// Example (a): greedy is too aggressive and pays 11.5.
	a := model.ToyExampleA()
	g := &Greedy{}
	sa, err := g.Solve(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckFeasible(sa, feasTol); err != nil {
		t.Fatal(err)
	}
	if got := totalOf(t, a, sa); math.Abs(got-11.5) > 0.05 {
		t.Errorf("greedy on (a) = %g, want ≈11.5", got)
	}
	// Example (b): greedy is too conservative and pays 11.3.
	b := model.ToyExampleB()
	sb, err := g.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := totalOf(t, b, sb); math.Abs(got-11.3) > 0.05 {
		t.Errorf("greedy on (b) = %g, want ≈11.3", got)
	}
}

// smoothedGap bounds how far above the exact LP optimum the smoothed
// Offline may land, relative. Measured on amd64 the gaps are 2.4e-4 (toy
// a), 1.4e-4 (toy b) and 1.5e-4 (smallRome(3, 4, 11)); a smoothing floor of
// 1e-2 instead of the default 1e-3 lands 1.4e-3 to 2.4e-3 above.
const smoothedGap = 1e-3

func TestOfflineSmoothedMatchesExactOnToys(t *testing.T) {
	for name, in := range map[string]*model.Instance{
		"a": model.ToyExampleA(), "b": model.ToyExampleB(),
	} {
		off := &Offline{}
		s, err := off.Solve(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := in.CheckFeasible(s, feasTol); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, exact, err := ExactOffline(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := totalOf(t, in, s)
		if got < exact-1e-6 {
			t.Errorf("%s: smoothed offline %g beat the exact optimum %g", name, got, exact)
		}
		if got > exact*(1+smoothedGap) {
			t.Errorf("%s: smoothed offline %g more than %g above exact %g", name, got, smoothedGap, exact)
		}
	}
}

func TestOfflineSmoothedMatchesExactOnRandomSmall(t *testing.T) {
	in := smallRome(t, 3, 4, 11)
	off := &Offline{}
	s, err := off.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.CheckFeasible(s, feasTol); err != nil {
		t.Fatal(err)
	}
	_, exact, err := ExactOffline(in)
	if err != nil {
		t.Fatal(err)
	}
	got := totalOf(t, in, s)
	if got < exact-1e-6 {
		t.Errorf("smoothed offline %g beat the exact optimum %g", got, exact)
	}
	if got > exact*(1+smoothedGap) {
		t.Errorf("smoothed offline %g more than %g above exact %g", got, smoothedGap, exact)
	}
}

func TestGreedyEqualsExactOnSingleSlot(t *testing.T) {
	// With T = 1 greedy IS the offline optimum; the smoothed solve must
	// land on the LP value.
	in := smallRome(t, 4, 1, 13)
	g := &Greedy{}
	s, err := g.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	_, exact, err := ExactOffline(in)
	if err != nil {
		t.Fatal(err)
	}
	got := totalOf(t, in, s)
	if got < exact-1e-6 || got > exact*1.02 {
		t.Errorf("greedy single-slot %g, exact %g", got, exact)
	}
}

func TestAtomisticFeasibleAndOrdered(t *testing.T) {
	in := smallRome(t, 12, 8, 17)
	schedules := map[string]model.Schedule{}
	for _, kind := range []AtomisticKind{PerfOpt, OperOpt, StatOpt} {
		a := &Atomistic{Kind: kind}
		s, err := a.Solve(in)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := in.CheckFeasible(s, feasTol); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		schedules[kind.String()] = s
	}
	// stat-opt minimizes the weighted static cost; the others cannot do
	// better on that metric.
	staticCost := func(s model.Schedule) float64 {
		b, err := in.Evaluate(s)
		if err != nil {
			t.Fatal(err)
		}
		return in.WOp*b.Op + in.WSq*b.Sq
	}
	statC := staticCost(schedules["stat-opt"])
	if perfC := staticCost(schedules["perf-opt"]); statC > perfC+1e-6 {
		t.Errorf("stat-opt static cost %g > perf-opt %g", statC, perfC)
	}
	if operC := staticCost(schedules["oper-opt"]); statC > operC+1e-6 {
		t.Errorf("stat-opt static cost %g > oper-opt %g", statC, operC)
	}
}

func TestAtomisticObjectivesDiffer(t *testing.T) {
	in := smallRome(t, 10, 6, 19)
	perf, err := (&Atomistic{Kind: PerfOpt}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	oper, err := (&Atomistic{Kind: OperOpt}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	bPerf, err := in.Evaluate(perf)
	if err != nil {
		t.Fatal(err)
	}
	bOper, err := in.Evaluate(oper)
	if err != nil {
		t.Fatal(err)
	}
	if bPerf.Sq > bOper.Sq+1e-9 {
		t.Errorf("perf-opt sq %g worse than oper-opt sq %g", bPerf.Sq, bOper.Sq)
	}
	if bOper.Op > bPerf.Op+1e-9 {
		t.Errorf("oper-opt op %g worse than perf-opt op %g", bOper.Op, bPerf.Op)
	}
}

func TestStaticNeverAdapts(t *testing.T) {
	in := smallRome(t, 10, 6, 23)
	s, err := (&Static{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.CheckFeasible(s, feasTol); err != nil {
		t.Fatal(err)
	}
	for t2 := 1; t2 < in.T; t2++ {
		for k := range s[t2].X {
			if s[t2].X[k] != s[0].X[k] {
				t.Fatalf("static changed allocation at slot %d", t2)
			}
		}
	}
	// All dynamic cost comes from the initial ramp-up; transitions after
	// slot 0 are free.
	b, err := in.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	first := model.NewAlloc(in.I, in.J)
	rc0, mg0 := in.SlotDynamic(first, s[0])
	if math.Abs(b.Rc-rc0) > 1e-9 || math.Abs(b.Mg-mg0) > 1e-9 {
		t.Errorf("static dynamic cost rc=%g mg=%g, want only the ramp-up rc=%g mg=%g",
			b.Rc, b.Mg, rc0, mg0)
	}
}

func TestGreedyFeasibleOnScenario(t *testing.T) {
	in := smallRome(t, 15, 10, 29)
	s, err := (&Greedy{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.CheckFeasible(s, feasTol); err != nil {
		t.Fatal(err)
	}
}

func TestOfflineBeatsGreedyAndAtomistic(t *testing.T) {
	in := smallRome(t, 8, 6, 31)
	off, err := (&Offline{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	offC := totalOf(t, in, off)
	gr, err := (&Greedy{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if grC := totalOf(t, in, gr); offC > grC*1.01 {
		t.Errorf("offline %g worse than greedy %g", offC, grC)
	}
	st, err := (&Atomistic{Kind: StatOpt}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if stC := totalOf(t, in, st); offC > stC*1.01 {
		t.Errorf("offline %g worse than stat-opt %g", offC, stC)
	}
}

func TestNames(t *testing.T) {
	names := map[string]interface{ Name() string }{
		"perf-opt":      &Atomistic{Kind: PerfOpt},
		"oper-opt":      &Atomistic{Kind: OperOpt},
		"stat-opt":      &Atomistic{Kind: StatOpt},
		"static":        &Static{},
		"online-greedy": &Greedy{},
		"offline-opt":   &Offline{},
	}
	for want, alg := range names {
		if got := alg.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}
