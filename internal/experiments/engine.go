package experiments

// This file is the parallel experiment engine. Every independent unit of
// work — one (figure-row, repetition, algorithm) execution — becomes a
// task on a bounded worker pool. Tasks share nothing: each rebuilds its
// instance from the deterministic per-(row, rep) seed and constructs
// fresh algorithm state, so the aggregated output is bit-identical for
// any worker count (including 1, the sequential order of the original
// engine). The offline-opt denominator of the competitive ratios is one
// more unit per (row, rep).

import (
	"runtime"
	"sync"
	"sync/atomic"

	"edgealloc/internal/model"
	"edgealloc/internal/sim"
)

// rowSpec describes one labeled row of a figure for the grid engine.
type rowSpec struct {
	// Label is the row's table label.
	Label string
	// Build constructs the instance of repetition rep. It must be
	// deterministic in rep alone (seeded from Params.Seed) because every
	// unit of the row rebuilds it independently.
	Build func(rep int) (*model.Instance, error)
	// Algs returns fresh algorithm instances for one unit of work. The
	// roster (length and order) must be identical across calls; state must
	// not be shared between calls, since units run concurrently.
	Algs func() []sim.Algorithm
}

// forEachIndex runs fn(0..n-1) across min(workers, n) goroutines pulling
// indices from a shared counter. fn must write its result to a disjoint,
// pre-sized slot. The first error stops the remaining work and is
// returned. workers ≤ 1 runs inline, preserving strict sequential order.
func forEachIndex(workers, n int, fn func(int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		once     sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					once.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// runRows executes the full (row, rep, algorithm) grid on the worker pool
// and aggregates competitive ratios — each algorithm's total cost divided
// by the offline optimum of the same (row, rep) — exactly like the
// sequential engine did.
func runRows(p Params, rows []rowSpec) ([]Row, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	// Unit layout, fixed up front so results land in deterministic slots:
	// for each row r and rep, one denominator unit followed by one unit
	// per algorithm of the row's roster.
	algCount := make([]int, len(rows))
	for r := range rows {
		algCount[r] = len(rows[r].Algs())
	}
	type unit struct {
		row, rep, alg int // alg == -1 is the offline-opt denominator
	}
	var units []unit
	for r := range rows {
		for rep := 0; rep < p.Reps; rep++ {
			units = append(units, unit{r, rep, -1})
			for a := 0; a < algCount[r]; a++ {
				units = append(units, unit{r, rep, a})
			}
		}
	}

	type outcome struct {
		name  string
		total float64
	}
	results := make([]outcome, len(units))
	err := forEachIndex(p.workers(), len(units), func(k int) error {
		u := units[k]
		in, err := rows[u.row].Build(u.rep)
		if err != nil {
			return err
		}
		var alg sim.Algorithm
		if u.alg < 0 {
			alg = fastOffline()
		} else {
			alg = rows[u.row].Algs()[u.alg]
		}
		run, err := sim.ExecuteOpts(in, alg, p.simOptions())
		if err != nil {
			return err
		}
		results[k] = outcome{name: run.Algorithm, total: run.Total}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Assemble ratios in (row, rep) order — the same order the sequential
	// engine appended samples, so aggregation is bit-identical.
	out := make([]Row, 0, len(rows))
	k := 0
	for r := range rows {
		samples := make([]map[string]float64, 0, p.Reps)
		for rep := 0; rep < p.Reps; rep++ {
			denom := results[k].total
			k++
			ratios := make(map[string]float64, algCount[r])
			for a := 0; a < algCount[r]; a++ {
				ratios[results[k].name] = results[k].total / denom
				k++
			}
			samples = append(samples, ratios)
		}
		out = append(out, Row{Label: rows[r].Label, Cells: aggregate(samples)})
	}
	return out, nil
}

// workers resolves the configured pool size (0 = one worker per
// available CPU).
func (p Params) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// simOptions maps the experiment parameters onto the per-run harness
// options: the conformance oracle is consulted on every unit of work
// unless explicitly disabled, and run-level telemetry flows into the
// shared instrument bundle when one is configured.
func (p Params) simOptions() sim.Options {
	return sim.Options{SkipConformance: p.SkipConformance, Metrics: p.Approx.Metrics}
}
