// Package experiments defines one reproduction harness per figure of the
// paper's evaluation (§V). Each harness builds the scenario of the figure,
// runs the algorithm groups, normalizes total costs by the offline
// optimum (the empirical competitive ratio the paper plots), aggregates
// mean and standard deviation over repetitions, and renders the rows as a
// text table.
//
// Default parameters are laptop-scale (the authors used a 512 GB Xeon
// server); Params lets the caller restore the paper's full scale
// (J≈300 users, T=60 slots, 5 repetitions). EXPERIMENTS.md records the
// exact parameters behind every published run of this repository.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"edgealloc/internal/baseline"
	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/sim"
	"edgealloc/internal/solver/alm"
)

// Params scales an experiment. Zero fields take the figure's defaults.
type Params struct {
	// Users is the number of mobile users per case (paper: ~300).
	Users int
	// Horizon is the number of time slots per case (paper: 60).
	Horizon int
	// Reps is the number of independent repetitions (paper: 5).
	Reps int
	// Cases is the number of test cases (hours) for Fig 2/3 (paper: 6).
	Cases int
	// Seed is the base random seed; case c, repetition r runs with seed
	// Seed + 1000·c + r.
	Seed int64
	// Workers bounds the number of concurrent (case, rep, algorithm) runs
	// (0 = one worker per available CPU). Results are bit-identical for
	// every worker count: each unit of work derives its RNG seed from
	// (Seed, case, rep) alone and owns all of its state.
	Workers int
	// Approx is the option set of the paper's algorithm in every figure:
	// core.Options declares and documents the fields, edgesim's tier flags
	// bind straight into it, and zero Solver fields take the experiment
	// solver profile. Approx.Metrics, when set, also receives the engine's
	// run-level telemetry across every unit of work (the same instrument
	// bundle the serving daemon scrapes); recording never changes results.
	Approx core.Options
	// Scenario overrides the default §V-A price/weight knobs (fields at
	// their zero values keep the scenario defaults).
	Scenario scenario.Config
}

func (p Params) withDefaults() Params {
	if p.Users == 0 {
		p.Users = 15
	}
	if p.Horizon == 0 {
		p.Horizon = 12
	}
	if p.Reps == 0 {
		p.Reps = 3
	}
	if p.Cases == 0 {
		p.Cases = 6
	}
	if p.Seed == 0 {
		p.Seed = 20140212 // the date of the paper's taxi-trace day
	}
	return p
}

func (p Params) scenarioConfig(seed int64) scenario.Config {
	cfg := p.Scenario
	cfg.Users = p.Users
	cfg.Horizon = p.Horizon
	cfg.Seed = seed
	return cfg
}

// Cell is one aggregated measurement.
type Cell struct {
	Name  string
	Stats sim.Stats
}

// Row is one labeled line of a figure (a test case, a parameter value, …).
type Row struct {
	Label string
	Cells []Cell
}

// Result is a reproduced figure.
type Result struct {
	Figure string
	Title  string
	Notes  []string
	Rows   []Row
}

// Cell returns the named cell of the labeled row, or false.
func (r *Result) Cell(label, name string) (Cell, bool) {
	for _, row := range r.Rows {
		if row.Label != label {
			continue
		}
		for _, c := range row.Cells {
			if c.Name == name {
				return c, true
			}
		}
	}
	return Cell{}, false
}

// WriteTable renders the result in the row/series layout of the paper's
// figures.
func (r *Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.Figure, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	if len(r.Rows) == 0 {
		return
	}
	names := make([]string, 0, len(r.Rows[0].Cells))
	for _, c := range r.Rows[0].Cells {
		names = append(names, c.Name)
	}
	fmt.Fprintf(w, "%-16s", "")
	for _, n := range names {
		fmt.Fprintf(w, " %16s", n)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s", row.Label)
		for _, n := range names {
			found := false
			for _, c := range row.Cells {
				if c.Name == n {
					if c.Stats.N > 1 {
						fmt.Fprintf(w, " %9.3f ±%5.3f", c.Stats.Mean, c.Stats.Std)
					} else {
						fmt.Fprintf(w, " %16.3f", c.Stats.Mean)
					}
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(w, " %16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// fastOffline is the offline-opt profile used as the normalization
// denominator: two-stage smoothing continuation with tolerances chosen so
// the objective is within a fraction of a percent of the exact optimum
// (validated against the simplex LP in internal/baseline tests) at a
// fraction of the default profile's cost.
func fastOffline() *baseline.Offline {
	return &baseline.Offline{
		MuSchedule: []float64{0.05, 2e-3},
		Solver: alm.Options{MaxOuter: 25, InnerIters: 800,
			FeasTol: 1e-6, DualTol: 1e-3, ObjTol: 1e-7, Penalty: 4},
	}
}

// fastGreedy mirrors the tuning for the per-slot greedy solves.
func fastGreedy() *baseline.Greedy {
	return &baseline.Greedy{
		MuSchedule: []float64{0.05, 2e-3},
		Solver: alm.Options{MaxOuter: 30, InnerIters: 500,
			FeasTol: 1e-7, DualTol: 1e-3, ObjTol: 1e-8, Penalty: 2},
	}
}

// approxAlg adapts the paper's algorithm to the sim.Algorithm interface
// with a fresh state per Solve.
type approxAlg struct {
	opts core.Options
}

func (a approxAlg) Name() string { return "online-approx" }

func (a approxAlg) Solve(in *model.Instance) (model.Schedule, error) {
	return core.NewOnlineApprox(in, a.opts).Run()
}

var _ sim.Algorithm = approxAlg{}

// approx builds the paper's algorithm adapter: p.Approx over the
// experiment solver profile. The figures that vary one more option
// (Fig 4's ε, Fig 1's full variable space) edit the returned copy.
func (p Params) approx() approxAlg {
	opts := p.Approx
	opts.Solver = opts.Solver.Or(alm.Options{MaxOuter: 40, InnerIters: 600,
		FeasTol: 1e-7, DualTol: 1e-3, ObjTol: 1e-8, Penalty: 2})
	return approxAlg{opts}
}

// aggregate converts per-rep ratio maps into sorted cells.
func aggregate(samples []map[string]float64) []Cell {
	byName := map[string][]float64{}
	for _, s := range samples {
		for name, v := range s {
			byName[name] = append(byName[name], v)
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	cells := make([]Cell, 0, len(names))
	for _, n := range names {
		cells = append(cells, Cell{Name: n, Stats: sim.Summarize(byName[n])})
	}
	return cells
}

// holisticAndAtomistic is the §V-B algorithm roster (excluding offline-opt
// which is the denominator), fresh per call for the pooled engine.
func holisticAndAtomistic(p Params) func() []sim.Algorithm {
	return func() []sim.Algorithm {
		return []sim.Algorithm{
			&baseline.Atomistic{Kind: baseline.PerfOpt},
			&baseline.Atomistic{Kind: baseline.OperOpt},
			&baseline.Atomistic{Kind: baseline.StatOpt},
			fastGreedy(),
			p.approx(),
		}
	}
}

func caseLabel(c int) string { return fmt.Sprintf("case-%d (%dpm)", c+1, 3+c) }

// caseRows builds the shared Fig-2/Fig-3 grid: one row per test case,
// seeded Seed + 1000·c + rep, all executed by the pooled engine.
func caseRows(p Params, build func(scenario.Config) (*model.Instance, error),
	algs func() []sim.Algorithm) []rowSpec {
	rows := make([]rowSpec, p.Cases)
	for c := 0; c < p.Cases; c++ {
		c := c
		rows[c] = rowSpec{
			Label: caseLabel(c),
			Build: func(rep int) (*model.Instance, error) {
				return build(p.scenarioConfig(p.Seed + int64(1000*c+rep)))
			},
			Algs: algs,
		}
	}
	return rows
}

func buildRome(cfg scenario.Config) (*model.Instance, error) {
	in, _, err := scenario.Rome(cfg)
	return in, err
}

func buildRandomWalk(cfg scenario.Config) (*model.Instance, error) {
	in, _, err := scenario.RandomWalkRome(cfg)
	return in, err
}

// trimNotes formats parameter provenance for the table header.
func trimNotes(p Params, extra ...string) []string {
	n := []string{fmt.Sprintf("J=%d users, T=%d slots, %d reps, seed=%d (paper: J≈300, T=60, 5 reps)",
		p.Users, p.Horizon, p.Reps, p.Seed)}
	return append(n, extra...)
}

// Fig1 reproduces the two toy examples of Figure 1 with exact numbers:
// online-greedy against the exact offline optimum and the paper's
// algorithm. Cells are absolute total costs, not ratios. Only the
// telemetry and conformance knobs of p apply; the toy instances fix the
// scale.
func Fig1(p Params) (*Result, error) {
	res := &Result{
		Figure: "Fig 1",
		Title:  "toy examples: greedy too aggressive (a) / too conservative (b)",
		Notes: []string{
			"paper: (a) greedy 11.5 vs optimal 9.6; (b) greedy 11.3 vs optimal 9.5",
			"cells are absolute total costs",
		},
	}
	approx := p.approx()
	approx.opts.Candidates = 0 // two-cloud toys: nothing to prune
	for _, tc := range []struct {
		label string
		inst  *model.Instance
	}{
		{"example-a", model.ToyExampleA()},
		{"example-b", model.ToyExampleB()},
	} {
		_, opt, err := baseline.ExactOffline(tc.inst)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig1 %s: %w", tc.label, err)
		}
		greedyRun, err := sim.ExecuteOpts(tc.inst, fastGreedy(), sim.Options{Metrics: p.Approx.Metrics})
		if err != nil {
			return nil, fmt.Errorf("experiments: fig1 %s: %w", tc.label, err)
		}
		apRun, err := sim.ExecuteOpts(tc.inst, approx, sim.Options{Metrics: p.Approx.Metrics})
		if err != nil {
			return nil, fmt.Errorf("experiments: fig1 %s: %w", tc.label, err)
		}
		one := func(v float64) sim.Stats { return sim.Summarize([]float64{v}) }
		res.Rows = append(res.Rows, Row{
			Label: tc.label,
			Cells: []Cell{
				{Name: "offline-opt", Stats: one(opt)},
				{Name: "online-greedy", Stats: one(greedyRun.Total)},
				{Name: "online-approx", Stats: one(apRun.Total)},
			},
		})
	}
	return res, nil
}

// Fig2 reproduces Figure 2: empirical competitive ratios of the atomistic
// and holistic groups on the Rome taxi scenario with power-law workloads,
// one row per hour-long test case.
func Fig2(p Params) (*Result, error) {
	p = p.withDefaults()
	if p.Scenario.WorkloadDist == "" {
		p.Scenario.WorkloadDist = "power"
	}
	rows, err := runRows(p, caseRows(p, buildRome, holisticAndAtomistic(p)))
	if err != nil {
		return nil, fmt.Errorf("experiments: fig2: %w", err)
	}
	return &Result{
		Figure: "Fig 2",
		Title:  "empirical competitive ratio, Rome taxis, power workloads",
		Notes: trimNotes(p,
			"paper shape: atomistic worst, greedy middle, online-approx ≈1.1"),
		Rows: rows,
	}, nil
}

// Fig3 reproduces Figure 3: the same comparison under uniform and normal
// workload distributions.
func Fig3(p Params) (*Result, error) {
	p = p.withDefaults()
	if p.Cases > 3 {
		p.Cases = 3 // the paper's Fig 3 shows three cases per distribution
	}
	res := &Result{
		Figure: "Fig 3",
		Title:  "empirical competitive ratio under uniform / normal workloads",
		Notes: trimNotes(p,
			"paper shape: online-approx near-optimal, up to 70% better than greedy"),
	}
	// Both distributions go into a single grid so the pool drains one flat
	// task list instead of hitting a barrier between the two sweeps.
	var specs []rowSpec
	for _, dist := range []string{"uniform", "normal"} {
		pd := p
		pd.Scenario.WorkloadDist = dist
		for _, rs := range caseRows(pd, buildRome, holisticAndAtomistic(pd)) {
			rs.Label = dist + " " + rs.Label
			specs = append(specs, rs)
		}
	}
	rows, err := runRows(p, specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig3: %w", err)
	}
	res.Rows = rows
	return res, nil
}

// Fig4 reproduces Figure 4: the sensitivity of the empirical competitive
// ratio to ε = ε₁ = ε₂ and to the dynamic/static weight ratio μ.
func Fig4(p Params) (*Result, error) {
	p = p.withDefaults()
	res := &Result{
		Figure: "Fig 4",
		Title:  "impact of ε and μ on the empirical competitive ratio",
		Notes: trimNotes(p,
			"paper shape: slight dip then stable in ε; ≈optimal for small μ, stable for large μ"),
	}
	// One flat grid over both sweeps; every (row, rep, algorithm) unit is
	// an independent pool task.
	var specs []rowSpec
	epsValues := []float64{1e-3, 1e-2, 1e-1, 1, 1e1, 1e2, 1e3}
	for _, eps := range epsValues {
		eps := eps
		specs = append(specs, rowSpec{
			Label: fmt.Sprintf("eps=%.0e", eps),
			Build: func(rep int) (*model.Instance, error) {
				return buildRome(p.scenarioConfig(p.Seed + int64(rep)))
			},
			Algs: func() []sim.Algorithm {
				a := p.approx()
				a.opts.Epsilon1, a.opts.Epsilon2 = eps, eps
				return []sim.Algorithm{a}
			},
		})
	}
	muValues := []float64{1e-3, 1e-2, 1e-1, 1, 1e1, 1e2, 1e3}
	for _, mu := range muValues {
		mu := mu
		specs = append(specs, rowSpec{
			Label: fmt.Sprintf("mu=%.0e", mu),
			Build: func(rep int) (*model.Instance, error) {
				cfg := p.scenarioConfig(p.Seed + int64(rep))
				cfg.Mu = mu
				return buildRome(cfg)
			},
			Algs: func() []sim.Algorithm { return []sim.Algorithm{p.approx()} },
		})
	}
	rows, err := runRows(p, specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig4: %w", err)
	}
	res.Rows = rows
	return res, nil
}

// Fig5 reproduces Figure 5: random-walk mobility on the metro graph with
// a growing user population; online-approx stays ≈1.1 while greedy climbs.
func Fig5(p Params) (*Result, error) {
	p = p.withDefaults()
	userCounts := fig5UserCounts(p.Users)
	res := &Result{
		Figure: "Fig 5",
		Title:  "random-walk mobility: ratio vs number of users",
		Notes: trimNotes(p,
			"paper: users 40..1000, approx ≈1.1 flat, greedy up to 1.8"),
	}
	specs := make([]rowSpec, 0, len(userCounts))
	for _, users := range userCounts {
		users := users
		pu := p
		pu.Users = users
		specs = append(specs, rowSpec{
			Label: fmt.Sprintf("users=%d", users),
			Build: func(rep int) (*model.Instance, error) {
				return buildRandomWalk(pu.scenarioConfig(p.Seed + int64(100*users+rep)))
			},
			Algs: func() []sim.Algorithm {
				return []sim.Algorithm{fastGreedy(), p.approx()}
			},
		})
	}
	rows, err := runRows(p, specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig5: %w", err)
	}
	res.Rows = rows
	return res, nil
}

// fig5UserCounts scales the paper's 40..1000 sweep to the configured base
// population.
func fig5UserCounts(base int) []int {
	if base >= 40 {
		return []int{40, 100, 200, 400, 700, 1000}
	}
	return []int{base / 2, base, 2 * base, 4 * base}
}

// ByName returns the named figure's harness.
func ByName(name string, p Params) (*Result, error) {
	switch strings.ToLower(strings.TrimPrefix(name, "fig")) {
	case "1":
		return Fig1(p)
	case "2":
		return Fig2(p)
	case "3":
		return Fig3(p)
	case "4":
		return Fig4(p)
	case "5":
		return Fig5(p)
	default:
		return nil, fmt.Errorf("experiments: unknown figure %q (want 1..5)", name)
	}
}
