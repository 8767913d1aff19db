package experiments

import (
	"fmt"

	"edgealloc/internal/baseline"
	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/sim"
	"edgealloc/internal/solver/alm"
)

// This file defines the ablation studies that go beyond the paper's
// figures: they interrogate the design choices DESIGN.md calls out
// (entropy vs quadratic regularization, the value of prediction, and the
// adversarial lower-bound family of §IV's future-work remark). They are
// driven by `edgesim -ablation`.

// AblationLookahead sweeps the prediction window of the model-predictive
// baseline on the Rome scenario, bracketing online-greedy (window 1) and
// offline-opt (window T), with the paper's prediction-free algorithm as
// the reference line.
func AblationLookahead(p Params) (*Result, error) {
	p = p.withDefaults()
	res := &Result{
		Figure: "Ablation A",
		Title:  "value of prediction: lookahead window vs competitive ratio",
		Notes: trimNotes(p,
			"window 1 ≈ online-greedy; window T = offline-opt; online-approx uses no prediction"),
	}
	windows := []int{1, 2, 3, 5}
	var specs []rowSpec
	for _, w := range windows {
		if w > p.Horizon {
			continue
		}
		w := w
		specs = append(specs, rowSpec{
			Label: fmt.Sprintf("window=%d", w),
			Build: func(rep int) (*model.Instance, error) {
				return buildRome(p.scenarioConfig(p.Seed + int64(rep)))
			},
			Algs: func() []sim.Algorithm {
				return []sim.Algorithm{
					&baseline.Lookahead{Window: w,
						MuSchedule: []float64{0.05, 2e-3},
						Solver: alm.Options{MaxOuter: 25, InnerIters: 600,
							FeasTol: 1e-6, DualTol: 1e-3, ObjTol: 1e-7, Penalty: 4}},
					p.approx(),
				}
			},
		})
	}
	rows, err := runRows(p, specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation lookahead: %w", err)
	}
	for _, row := range rows {
		// Normalize the lookahead cell name across windows so rows align.
		for i := range row.Cells {
			if row.Cells[i].Name != "online-approx" {
				row.Cells[i].Name = "lookahead"
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationRegularizer compares the paper's relative-entropy regularizer
// against the quadratic (proximal) variant across the dynamic-cost weight
// μ — the axis along which the two designs differ most.
func AblationRegularizer(p Params) (*Result, error) {
	p = p.withDefaults()
	res := &Result{
		Figure: "Ablation B",
		Title:  "entropy vs quadratic movement regularization",
		Notes: trimNotes(p,
			"the entropy form admits the Theorem-2 analysis; the quadratic form is the smoothed-OCO alternative"),
	}
	var specs []rowSpec
	for _, mu := range []float64{0.1, 1, 10} {
		mu := mu
		specs = append(specs, rowSpec{
			Label: fmt.Sprintf("mu=%g", mu),
			Build: func(rep int) (*model.Instance, error) {
				cfg := p.scenarioConfig(p.Seed + int64(rep))
				cfg.Mu = mu
				return buildRome(cfg)
			},
			Algs: func() []sim.Algorithm {
				return []sim.Algorithm{
					p.approx(),
					&baseline.Proximal{Solver: alm.Options{MaxOuter: 40, InnerIters: 600,
						FeasTol: 1e-7, DualTol: 1e-3, ObjTol: 1e-8, Penalty: 2}},
				}
			},
		})
	}
	rows, err := runRows(p, specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation regularizer: %w", err)
	}
	res.Rows = rows
	return res, nil
}

// AblationAdversarial sweeps the spike factor of the ping-pong family,
// reporting exact competitive ratios (the offline denominator is the LP
// optimum here, not the smoothed program — the instances are tiny).
func AblationAdversarial() (*Result, error) {
	res := &Result{
		Figure: "Ablation C",
		Title:  "adversarial price alternation: empirical lower-bound probe",
		Notes: []string{
			"two clouds, one user, prices alternate every slot (§IV Remark future work)",
			"ratios are exact: offline denominators come from the LP solver",
		},
	}
	// The spike values are independent probes with exact LP denominators;
	// run them on the pool (one task per spike — the instances are tiny).
	spikes := []float64{1.5, 2, 3, 5, 8}
	rows := make([]Row, len(spikes))
	err := forEachIndex(Params{}.workers(), len(spikes), func(k int) error {
		spike := spikes[k]
		in, err := scenario.PingPong(scenario.AdversarialConfig{
			Horizon: 12, Spike: spike, Dynamic: spike - 1,
		})
		if err != nil {
			return fmt.Errorf("experiments: ablation adversarial: %w", err)
		}
		_, opt, err := baseline.ExactOffline(in)
		if err != nil {
			return fmt.Errorf("experiments: ablation adversarial: %w", err)
		}
		ratioOf := func(alg sim.Algorithm) (float64, error) {
			run, err := sim.Execute(in, alg)
			if err != nil {
				return 0, err
			}
			return run.Total / opt, nil
		}
		ap, err := ratioOf(Params{}.approx())
		if err != nil {
			return fmt.Errorf("experiments: ablation adversarial spike=%g: %w", spike, err)
		}
		gr, err := ratioOf(fastGreedy())
		if err != nil {
			return fmt.Errorf("experiments: ablation adversarial spike=%g: %w", spike, err)
		}
		one := func(v float64) sim.Stats { return sim.Summarize([]float64{v}) }
		rows[k] = Row{
			Label: fmt.Sprintf("spike=%.1f", spike),
			Cells: []Cell{
				{Name: "online-approx", Stats: one(ap)},
				{Name: "online-greedy", Stats: one(gr)},
				{Name: "theorem-2-bound", Stats: one(core.RatioBound(in, 1, 1))},
			},
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// AblationByName dispatches the ablation studies for cmd/edgesim.
func AblationByName(name string, p Params) (*Result, error) {
	switch name {
	case "lookahead", "a":
		return AblationLookahead(p)
	case "regularizer", "b":
		return AblationRegularizer(p)
	case "adversarial", "c":
		return AblationAdversarial()
	default:
		return nil, fmt.Errorf("experiments: unknown ablation %q (want lookahead, regularizer, adversarial)", name)
	}
}
