// Package sim is the discrete-time simulation harness: it runs an
// allocation algorithm over an instance, checks the resulting schedule
// against the paper's guarantees and prices it under the true objective
// P0 in the same pass, and aggregates statistics across repetitions —
// the role played by the authors' Python simulator in §V.
package sim

import (
	"fmt"
	"math"
	"time"

	"edgealloc/internal/conform"
	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/telemetry"
)

// Algorithm is any allocation policy: given a validated instance it
// produces one allocation per slot. Online algorithms must only use
// information revealed up to each slot; that discipline is enforced by
// their own constructions (see internal/core and internal/baseline), not
// by the harness.
type Algorithm interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Solve produces a full schedule for the instance.
	Solve(in *model.Instance) (model.Schedule, error)
}

// Certifier is implemented by algorithms (notably *core.OnlineApprox)
// that can certify a dual lower bound on the offline optimum for their
// most recent Solve. The harness consults it to cross-check the
// certificate against the realized cost in the conformance oracle.
type Certifier interface {
	Certificate() (*core.Certificate, error)
}

// RatioBounder is implemented by algorithms carrying a provable
// competitive-ratio bound (Theorem 2's r = 1 + γ|I|) for their most
// recent Solve; 0 means no bound is claimed.
type RatioBounder interface {
	CompetitiveRatioBound() float64
}

// Run is the outcome of one algorithm execution on one instance.
type Run struct {
	Algorithm string
	Schedule  model.Schedule
	Breakdown model.Breakdown
	// Total is the weighted P0 objective of the schedule.
	Total float64
	// Conformance is the paper-conformance oracle's report for the run.
	// A run with violations is never returned — Execute surfaces it as an
	// error instead — so the report here is always clean.
	Conformance *conform.Report
	// Elapsed is the wall-clock time of the algorithm's Solve call alone.
	// The conformance check, which also prices the schedule, is excluded
	// (it is harness overhead, tracked by EvalElapsed), so per-algorithm
	// timings stay meaningful when many runs execute concurrently.
	Elapsed time.Duration
	// EvalElapsed is the time the harness spent checking and pricing the
	// schedule after Solve returned.
	EvalElapsed time.Duration
}

// Options tunes the harness around one algorithm execution. The zero
// value records nothing.
type Options struct {
	// Metrics optionally records run-level telemetry — completed runs,
	// Solve latency, and conformance-oracle findings by kind — into the
	// same instrument bundle the per-slot solver hooks use, so batch CLIs
	// and the serving daemon expose one metric namespace. Nil records
	// nothing.
	Metrics *telemetry.SolverMetrics
}

// Execute runs the algorithm with default options: the schedule is
// verified by the conformance oracle and evaluated under the true
// weighted cost.
func Execute(in *model.Instance, alg Algorithm) (*Run, error) {
	return ExecuteOpts(in, alg, Options{})
}

// ExecuteOpts runs the algorithm and checks its schedule through the
// paper-conformance oracle, whose one walk also prices it: the run's
// Breakdown is the report's P0 breakdown, which sums SlotCost in the
// order Evaluate does, bit for bit. Conformance violations are returned
// as errors wrapping conform.ErrNonConformant.
func ExecuteOpts(in *model.Instance, alg Algorithm, opts Options) (*Run, error) {
	start := time.Now()
	sched, err := alg.Solve(in)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", alg.Name(), err)
	}
	// Elapsed covers Solve only; the check below is timed separately
	// into EvalElapsed.
	elapsed := time.Since(start)
	opts.Metrics.ObserveRun(elapsed.Seconds())
	evalStart := time.Now()
	report := conform.Check(in, sched, diagnose(alg), conform.Options{})
	if err := report.Err(); err != nil {
		// Surface the findings through telemetry before failing the run:
		// a scrape shows which guarantee broke even when the caller only
		// sees the wrapped error.
		for kind, n := range report.Counts() {
			for k := 0; k < n; k++ {
				opts.Metrics.CountViolation(string(kind))
			}
		}
		return nil, fmt.Errorf("sim: %s failed conformance: %w", alg.Name(), err)
	}
	return &Run{
		Algorithm:   alg.Name(),
		Schedule:    sched,
		Breakdown:   report.BreakdownP0,
		Total:       in.Total(report.BreakdownP0),
		Conformance: report,
		Elapsed:     elapsed,
		EvalElapsed: time.Since(evalStart),
	}, nil
}

// diagnose collects the solver-side evidence the conformance oracle can
// cross-check: the dual certificate and the Theorem-2 ratio, for
// algorithms that expose them.
func diagnose(alg Algorithm) *conform.Diagnostics {
	var d conform.Diagnostics
	if rb, ok := alg.(RatioBounder); ok {
		d.RatioBound = rb.CompetitiveRatioBound()
	}
	if c, ok := alg.(Certifier); ok {
		if cert, err := c.Certificate(); err == nil {
			d.HasCertificate = true
			d.LowerBoundP0 = cert.LowerBoundP0()
			d.LowerBoundP1 = cert.LowerBoundP1()
			d.DualResidual = cert.Feasibility.Max()
			d.NuCharge = cert.NuCharge
		}
	}
	if !d.HasCertificate && d.RatioBound == 0 {
		return nil
	}
	return &d
}

// Stats summarizes a sample of values.
type Stats struct {
	Mean, Std float64
	Min, Max  float64
	N         int
}

// Summarize computes mean, sample standard deviation, and range.
func Summarize(vals []float64) Stats {
	s := Stats{N: len(vals), Min: math.Inf(1), Max: math.Inf(-1)}
	if s.N == 0 {
		return Stats{}
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, v := range vals {
			d := v - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}
