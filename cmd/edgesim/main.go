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
	"strings"
	"time"

	"edgealloc/internal/experiments"
	"edgealloc/internal/prof"
	"edgealloc/internal/scenario"
	"edgealloc/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: it parses args, executes the
// requested figures, and writes tables to stdout and errors to stderr,
// returning the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edgesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig        = fs.String("fig", "all", "figure to reproduce: 1..5 or 'all'")
		ablation   = fs.String("ablation", "", "run a beyond-the-paper study instead of figures: lookahead, regularizer, adversarial, or 'all'")
		users      = fs.Int("users", 15, "number of mobile users J")
		horizon    = fs.Int("horizon", 12, "number of time slots T")
		reps       = fs.Int("reps", 2, "independent repetitions per case")
		cases      = fs.Int("cases", 3, "test cases (hours) for figures 2-3")
		seed       = fs.Int64("seed", 20140212, "base random seed")
		workers    = fs.Int("workers", 0, "concurrent (case, rep, algorithm) runs (0 = all CPUs); results are identical for any value")
		candidates = fs.Int("candidates", 0, "per-user candidate-set size for the paper's algorithm (0 = full variable space; any value is certified equal to the full solve)")
		fastmath   = fs.Bool("fastmath", false, "evaluate the paper algorithm's entropy terms with the batch fast-math kernels (costs agree with the exact path to 1e-8; not bitwise-reproducible against it)")
		fastmath32 = fs.Bool("fastmath32", false, "with the fast-math kernels, store the ratio scratch in float32 (implies -fastmath)")
		shards     = fs.Int("shards", 0, "split the paper algorithm's per-slot solve across this many user shards coordinated by consensus ADMM (0 = single program; composes with -candidates and -fastmath)")
		shardWkrs  = fs.String("shard-workers", "", "comma-separated shard-worker base URLs (cmd/edgeshard, e.g. http://127.0.0.1:9711,http://127.0.0.1:9712) to place the shard blocks on over RPC; dead workers fold back to local solving (requires -shards)")
		incr       = fs.Bool("incremental", false, "solve the paper algorithm's slots incrementally: re-solve only users whose attachment changed, gated by dual feasibility (composes with -candidates, -fastmath, and -shards)")
		incrTol    = fs.Float64("incremental-tol", 0, "relative dual-feasibility tolerance of the incremental gate (0 = package default)")
		noconform  = fs.Bool("noconform", false, "disable the paper-conformance oracle on every run (it is on by default)")
		dist       = fs.String("dist", "", "workload distribution override (power|uniform|normal)")
		mu         = fs.Float64("mu", 0, "dynamic/static weight ratio μ (0 = default 1)")
		mig        = fs.Float64("migscale", 0, "migration price scale (0 = default 1)")
		reconf     = fs.Float64("reconf", 0, "mean reconfiguration price (0 = default 1)")
		sqPrice    = fs.Float64("sqprice", 0, "service-quality price per km (0 = default)")
		vol        = fs.Float64("vol", 0, "op-price volatility (std/base, 0 = default 0.5)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		metricsOut = fs.String("metrics", "", "write solver telemetry (Prometheus text format) to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		// The FlagSet has already reported the problem on stderr.
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "edgesim: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *ablation != "" && *fig != "all" {
		fmt.Fprintln(stderr, "edgesim: -ablation and -fig are mutually exclusive")
		return 2
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "edgesim: %v\n", err)
		return 1
	}
	defer stopProf()

	// The batch engine records into the same instrument bundle the
	// serving daemon exposes, so a -metrics dump and an edged scrape show
	// identical metric names.
	var registry *telemetry.Registry
	var solverMetrics *telemetry.SolverMetrics
	if *metricsOut != "" {
		registry = telemetry.NewRegistry()
		solverMetrics = telemetry.NewSolverMetrics(registry)
	}

	p := experiments.Params{
		Users:           *users,
		Horizon:         *horizon,
		Reps:            *reps,
		Cases:           *cases,
		Seed:            *seed,
		Workers:         *workers,
		Candidates:      *candidates,
		Shards:          *shards,
		ShardWorkers:    splitCSV(*shardWkrs),
		FastMath:        *fastmath,
		FastMathF32:     *fastmath32,
		Incremental:     *incr,
		IncrementalTol:  *incrTol,
		SkipConformance: *noconform,
		Scenario: scenario.Config{
			WorkloadDist:    *dist,
			Mu:              *mu,
			MigScale:        *mig,
			ReconfMean:      *reconf,
			SqPricePerKm:    *sqPrice,
			PriceVolatility: *vol,
		},
		Metrics: solverMetrics,
	}

	names, byName := []string{*fig}, experiments.ByName
	switch {
	case *ablation == "all":
		names, byName = []string{"lookahead", "regularizer", "adversarial"}, experiments.AblationByName
	case *ablation != "":
		names, byName = []string{*ablation}, experiments.AblationByName
	case *fig == "all":
		names = []string{"1", "2", "3", "4", "5"}
	}
	var claimSources []*experiments.Result
	for _, f := range names {
		start := time.Now()
		res, err := byName(f, p)
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
		if err := dumpMetrics(*metricsOut, registry); err != nil {
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

// splitCSV splits a comma-separated flag value into its non-empty,
// whitespace-trimmed items (nil for an empty value).
func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
