package sim

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"edgealloc/internal/conform"
	"edgealloc/internal/core"
	"edgealloc/internal/model"
)

// fixedAlg returns a canned schedule (or error) for testing the harness.
type fixedAlg struct {
	name  string
	sched model.Schedule
	err   error
}

func (f *fixedAlg) Name() string { return f.name }

func (f *fixedAlg) Solve(*model.Instance) (model.Schedule, error) {
	return f.sched, f.err
}

var _ Algorithm = (*fixedAlg)(nil)

func feasibleSchedule(in *model.Instance) model.Schedule {
	s := make(model.Schedule, in.T)
	for t := range s {
		x := model.NewAlloc(in.I, in.J)
		x.Set(0, 0, 1)
		s[t] = x
	}
	return s
}

// TestExecuteHappyPath runs a canned schedule and the paper's algorithm,
// which also hands the oracle its certificate and ratio, and requires the
// run's price, which the conformance oracle's walk computed, to be
// Evaluate's over the run's schedule: all four components and the total,
// bit for bit.
func TestExecuteHappyPath(t *testing.T) {
	toy := model.ToyExampleA()
	for _, tc := range []struct {
		in  *model.Instance
		alg Algorithm
	}{
		{toy, &fixedAlg{name: "canned", sched: feasibleSchedule(toy)}},
		{conform.GenInstance(conform.GenConfig{Seed: 3, I: 3, J: 5, T: 4}), core.NewOnlineApprox(nil, core.Options{})},
	} {
		run, err := Execute(tc.in, tc.alg)
		if err != nil {
			t.Fatal(err)
		}
		if run.Algorithm != tc.alg.Name() {
			t.Errorf("Algorithm = %q, want %q", run.Algorithm, tc.alg.Name())
		}
		if run.Total <= 0 {
			t.Errorf("%s: Total = %g", run.Algorithm, run.Total)
		}
		want, err := tc.in.Evaluate(run.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		got := run.Breakdown
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"Op", got.Op, want.Op}, {"Sq", got.Sq, want.Sq},
			{"Rc", got.Rc, want.Rc}, {"Mg", got.Mg, want.Mg},
			{"Total", run.Total, tc.in.Total(want)},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Errorf("%s: %s = %v, Evaluate says %v", run.Algorithm, c.name, c.got, c.want)
			}
		}
	}
}

func TestExecutePropagatesAlgorithmError(t *testing.T) {
	in := model.ToyExampleA()
	sentinel := errors.New("boom")
	_, err := Execute(in, &fixedAlg{name: "failing", err: sentinel})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "failing") {
		t.Errorf("error %q does not name the algorithm", err)
	}
}

func TestExecuteRejectsInfeasibleSchedule(t *testing.T) {
	in := model.ToyExampleA()
	// Under-serve the single user.
	bad := make(model.Schedule, in.T)
	for t2 := range bad {
		bad[t2] = model.NewAlloc(in.I, in.J)
	}
	_, err := Execute(in, &fixedAlg{name: "cheater", sched: bad})
	if err == nil {
		t.Fatal("Execute accepted an infeasible schedule")
	}
	if !errors.Is(err, conform.ErrNonConformant) {
		t.Fatalf("error %v does not wrap conform.ErrNonConformant", err)
	}
	// The error must name the algorithm and the violated guarantee.
	for _, want := range []string{"cheater", string(conform.KindDemand)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestExecuteAttachesConformanceReport: the default path keeps the clean
// report on the Run so experiment code can inspect breakdowns.
func TestExecuteAttachesConformanceReport(t *testing.T) {
	in := model.ToyExampleA()
	run, err := Execute(in, &fixedAlg{name: "ok", sched: feasibleSchedule(in)})
	if err != nil {
		t.Fatal(err)
	}
	if run.Conformance == nil || !run.Conformance.OK() {
		t.Fatalf("Conformance = %+v, want clean report", run.Conformance)
	}
	if got := in.Total(run.Conformance.BreakdownP0); math.Abs(got-run.Total) > 1e-12 {
		t.Errorf("report P0 total %g != run total %g", got, run.Total)
	}
}

// lyingAlg returns a feasible schedule but certifies an impossible lower
// bound, so only the certificate cross-check can catch it.
type lyingAlg struct {
	fixedAlg
	cert core.Certificate
}

func (l *lyingAlg) Certificate() (*core.Certificate, error) {
	return &l.cert, nil
}

func TestExecuteRejectsLyingCertificate(t *testing.T) {
	in := model.ToyExampleA()
	sched := feasibleSchedule(in)
	b, err := in.Evaluate(sched)
	if err != nil {
		t.Fatal(err)
	}
	alg := &lyingAlg{
		fixedAlg: fixedAlg{name: "liar", sched: sched},
		cert: core.Certificate{
			// Claims OPT(P1) is 10x the achieved cost; SigmaWeighted is kept
			// honest so the violation is isolated to weak duality.
			D:             10 * in.Total(b),
			SigmaWeighted: in.WMg * in.Sigma(),
		},
	}
	_, err = Execute(in, alg)
	if err == nil {
		t.Fatal("Execute accepted a certificate whose bound exceeds the cost")
	}
	if !strings.Contains(err.Error(), string(conform.KindLowerBound)) {
		t.Errorf("error %q does not mention the lower-bound violation", err)
	}
}

// TestExecuteRejectsWrongLengthSchedule requires a schedule of too few
// or too many slots to fail conformance, not to panic on a slot past the
// instance's price series.
func TestExecuteRejectsWrongLengthSchedule(t *testing.T) {
	in := model.ToyExampleA()
	full := feasibleSchedule(in)
	for name, s := range map[string]model.Schedule{
		"short": full[:1],
		"long":  append(full, feasibleSchedule(in)[0]),
	} {
		if _, err := Execute(in, &fixedAlg{name: name, sched: s}); !errors.Is(err, conform.ErrNonConformant) {
			t.Errorf("%s schedule: err = %v, want ErrNonConformant", name, err)
		}
	}
}

// sleepAlg pauses in Solve before returning a canned schedule, so the
// solve phase has a known minimum duration.
type sleepAlg struct {
	d     time.Duration
	sched model.Schedule
}

func (s *sleepAlg) Name() string { return "sleeper" }

func (s *sleepAlg) Solve(*model.Instance) (model.Schedule, error) {
	time.Sleep(s.d)
	return s.sched, nil
}

// TestElapsedMeasuresSolveOnly pins down the timing contract: Elapsed
// covers exactly the algorithm's Solve call, and the harness's
// conformance check, which prices the schedule, lands in EvalElapsed —
// not in Elapsed — so per-algorithm timings stay meaningful when many
// runs execute concurrently.
func TestElapsedMeasuresSolveOnly(t *testing.T) {
	in := model.ToyExampleA()
	const pause = 20 * time.Millisecond
	run, err := Execute(in, &sleepAlg{d: pause, sched: feasibleSchedule(in)})
	if err != nil {
		t.Fatal(err)
	}
	if run.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", run.Elapsed)
	}
	if run.Elapsed < pause {
		t.Errorf("Elapsed = %v, want ≥ the %v spent in Solve", run.Elapsed, pause)
	}
	// The toy check takes microseconds; if Solve's pause leaked into the
	// evaluation timer the two phases were not measured disjointly.
	if run.EvalElapsed >= pause {
		t.Errorf("EvalElapsed = %v absorbed the Solve pause %v — phases not disjoint",
			run.EvalElapsed, pause)
	}
	if run.EvalElapsed < 0 {
		t.Errorf("EvalElapsed = %v, want ≥ 0", run.EvalElapsed)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Errorf("stats = %+v", s)
	}
	// Sample std of {1,2,3,4} is sqrt(5/3).
	if want := math.Sqrt(5.0 / 3.0); math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("Std = %g, want %g", s.Std, want)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 || z.Std != 0 {
		t.Errorf("empty stats = %+v, want zero value", z)
	}
	one := Summarize([]float64{7})
	if one.Mean != 7 || one.Std != 0 || one.Min != 7 || one.Max != 7 {
		t.Errorf("single stats = %+v", one)
	}
}
