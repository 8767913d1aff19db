// Command edgesim reproduces the figures of the paper's evaluation
// section: it builds the §V-A scenarios, runs the atomistic and holistic
// algorithm groups, normalizes by the offline optimum, and prints the
// rows/series of the requested figure. With -ablation it runs instead
// the studies that go beyond the paper's figures — the value of
// prediction (lookahead windows), entropy vs quadratic regularization,
// and the adversarial lower-bound probe (DESIGN.md §7/§8, EXPERIMENTS.md
// "Beyond the paper").
//
// Usage:
//
//	edgesim -fig 2                      # Figure 2 at the default scale
//	edgesim -fig all -users 25 -reps 3  # everything, bigger
//	edgesim -fig 4 -horizon 16 -mu 1    # parameter-impact figure
//	edgesim -fig 2 -cpuprofile cpu.prof # profile the run
//	edgesim -ablation all -users 10 -horizon 8
//
// The defaults are laptop-scale; the paper's full scale is
// -users 300 -horizon 60 -reps 5 (budget hours of CPU for the offline
// denominators at that size).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"edgealloc/internal/experiments"
	"edgealloc/internal/prof"
	"edgealloc/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is everything the command line sets: what to run, where the
// profiles and the telemetry dump go, and the experiment parameters the
// flags bind straight into.
type options struct {
	fig, ablation          string
	cpuprofile, memprofile string
	metricsOut             string
	p                      experiments.Params
}

// newFlagSet declares edgesim's flags over o. The solve-tier flags are
// core.Options' own (BindFlags), bound into the paper algorithm's options.
func newFlagSet(o *options, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("edgesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p, sc := &o.p, &o.p.Scenario
	fs.StringVar(&o.fig, "fig", "all", "figure to reproduce: 1..5 or 'all'")
	fs.StringVar(&o.ablation, "ablation", "", "run a beyond-the-paper study instead of figures: lookahead, regularizer, adversarial, or 'all'")
	fs.IntVar(&p.Users, "users", 15, "number of mobile users J")
	fs.IntVar(&p.Horizon, "horizon", 12, "number of time slots T")
	fs.IntVar(&p.Reps, "reps", 2, "independent repetitions per case")
	fs.IntVar(&p.Cases, "cases", 3, "test cases (hours) for figures 2-3")
	fs.Int64Var(&p.Seed, "seed", 20140212, "base random seed")
	fs.IntVar(&p.Workers, "workers", 0, "concurrent (case, rep, algorithm) runs (0 = all CPUs); results are identical for any value")
	fs.IntVar(&p.Approx.Candidates, "candidates", 0, "per-user candidate-set size for the paper's algorithm (0 = full variable space; any value is certified equal to the full solve)")
	p.Approx.BindFlags(fs)
	fs.BoolVar(&p.SkipConformance, "noconform", false, "disable the paper-conformance oracle on every run (it is on by default)")
	fs.StringVar(&sc.WorkloadDist, "dist", "", "workload distribution override (power|uniform|normal)")
	fs.Float64Var(&sc.Mu, "mu", 0, "dynamic/static weight ratio μ (0 = default 1)")
	fs.Float64Var(&sc.MigScale, "migscale", 0, "migration price scale (0 = default 1)")
	fs.Float64Var(&sc.ReconfMean, "reconf", 0, "mean reconfiguration price (0 = default 1)")
	fs.Float64Var(&sc.SqPricePerKm, "sqprice", 0, "service-quality price per km (0 = default)")
	fs.Float64Var(&sc.PriceVolatility, "vol", 0, "op-price volatility (std/base, 0 = default 0.5)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.metricsOut, "metrics", "", "write solver telemetry (Prometheus text format) to this file on exit")
	return fs
}

// run is the testable body of main: it parses args, executes the
// requested figures, and writes tables to stdout and errors to stderr,
// returning the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := newFlagSet(&o, stderr)
	if err := fs.Parse(args); err != nil {
		// The FlagSet has already reported the problem on stderr.
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "edgesim: unexpected arguments: %v\n", fs.Args())
		return 2
	case o.ablation != "" && o.fig != "all":
		fmt.Fprintln(stderr, "edgesim: -ablation and -fig are mutually exclusive")
		return 2
	case len(o.p.Approx.ShardWorkers) > 0 && o.p.Approx.Shards == 0:
		fmt.Fprintln(stderr, "edgesim: -shard-workers requires -shards")
		return 2
	case o.p.Approx.Incremental && o.p.Approx.Shards > 0:
		fmt.Fprintln(stderr, "edgesim: -incremental does not compose with -shards")
		return 2
	}

	stopProf, err := prof.Start(o.cpuprofile, o.memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "edgesim: %v\n", err)
		return 1
	}
	defer stopProf()

	// The batch engine records into the same instrument bundle the
	// serving daemon exposes, so a -metrics dump and an edged scrape show
	// identical metric names.
	var registry *telemetry.Registry
	if o.metricsOut != "" {
		registry = telemetry.NewRegistry()
		o.p.Approx.Metrics = telemetry.NewSolverMetrics(registry)
	}

	names, byName := []string{o.fig}, experiments.ByName
	switch {
	case o.ablation == "all":
		names, byName = []string{"lookahead", "regularizer", "adversarial"}, experiments.AblationByName
	case o.ablation != "":
		names, byName = []string{o.ablation}, experiments.AblationByName
	case o.fig == "all":
		names = []string{"1", "2", "3", "4", "5"}
	}
	var claimSources []*experiments.Result
	for _, f := range names {
		start := time.Now()
		res, err := byName(f, o.p)
		if err != nil {
			fmt.Fprintf(stderr, "edgesim: %v\n", err)
			return 1
		}
		res.WriteTable(stdout)
		fmt.Fprintf(stdout, "   (%s in %v)\n\n", res.Figure, time.Since(start).Round(time.Millisecond))
		if f == "2" || f == "3" {
			claimSources = append(claimSources, res)
		}
	}
	if len(claimSources) > 0 {
		fmt.Fprintf(stdout, "== headline claims ==\n   %s\n", experiments.SummarizeClaims(claimSources...))
	}
	if registry != nil {
		if err := dumpMetrics(o.metricsOut, registry); err != nil {
			fmt.Fprintf(stderr, "edgesim: %v\n", err)
			return 1
		}
	}
	return 0
}

// dumpMetrics writes the run's telemetry in Prometheus text format.
func dumpMetrics(path string, r *telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing metrics: %w", err)
	}
	if err := r.WritePrometheus(f); err != nil {
		f.Close()
		return fmt.Errorf("writing metrics: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing metrics: %w", err)
	}
	return nil
}
