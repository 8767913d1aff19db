package edgealloc

// One benchmark per figure of the paper's evaluation section. Each runs a
// reduced-scale reproduction (benchParams: 6 users, 5 slots — seconds on
// any host; the authors used a 512 GB Xeon server) and reports the
// headline quantity of the figure as a custom metric, so `go test
// -bench=.` regenerates every figure's series. These report figure
// quantities, not speed: what a slot costs is `bash bench/run.sh`.
// cmd/edgesim prints the full row/series tables and EXPERIMENTS.md records
// paper-vs-measured at larger scales.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func benchParams() ExperimentParams {
	return ExperimentParams{Users: 6, Horizon: 5, Reps: 1, Cases: 2, Seed: 20140212}
}

// reportCells emits every (row, cell) ratio as a benchmark metric.
func reportCells(b *testing.B, res *ExperimentResult, metric string, filter func(label string) bool) {
	b.Helper()
	count, sum := 0, 0.0
	for _, row := range res.Rows {
		if filter != nil && !filter(row.Label) {
			continue
		}
		for _, c := range row.Cells {
			if c.Name == metric {
				sum += c.Stats.Mean
				count++
			}
		}
	}
	if count > 0 {
		b.ReportMetric(sum/float64(count), metric+"-ratio")
	}
}

// BenchmarkFig1Examples regenerates the Figure 1 toy numbers (greedy 11.5
// and 11.3 vs optima 9.6 and 9.5).
func BenchmarkFig1Examples(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := ReproduceFigure("1", ExperimentParams{})
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			ga, _ := res.Cell("example-a", "online-greedy")
			oa, _ := res.Cell("example-a", "offline-opt")
			b.ReportMetric(ga.Stats.Mean, "greedy-a-total")
			b.ReportMetric(oa.Stats.Mean, "optimal-a-total")
		}
	}
}

// BenchmarkFig2RealWorldPower regenerates Figure 2: competitive ratios of
// the atomistic and holistic groups on the Rome taxi scenario with
// power-law workloads.
func BenchmarkFig2RealWorldPower(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := ReproduceFigure("2", benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			reportCells(b, res, "online-approx", nil)
			reportCells(b, res, "online-greedy", nil)
			reportCells(b, res, "stat-opt", nil)
		}
	}
}

// BenchmarkFig3UniformNormal regenerates Figure 3: the same comparison
// under uniform and normal workload distributions.
func BenchmarkFig3UniformNormal(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := ReproduceFigure("3", benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			reportCells(b, res, "online-approx", func(l string) bool {
				return strings.HasPrefix(l, "uniform")
			})
			reportCells(b, res, "online-greedy", func(l string) bool {
				return strings.HasPrefix(l, "normal")
			})
		}
	}
}

// BenchmarkFig4EpsilonMu regenerates Figure 4: sensitivity of the ratio
// to ε = ε₁ = ε₂ and to the dynamic/static weight μ.
func BenchmarkFig4EpsilonMu(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := ReproduceFigure("4", benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			reportCells(b, res, "online-approx", func(l string) bool {
				return strings.HasPrefix(l, "eps=")
			})
		}
	}
}

// BenchmarkFig5RandomWalk regenerates Figure 5: random-walk mobility with
// a growing user population.
func BenchmarkFig5RandomWalk(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := ReproduceFigure("5", benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			reportCells(b, res, "online-approx", nil)
			reportCells(b, res, "online-greedy", nil)
		}
	}
}

// BenchmarkFig2ByWorkers measures the wall-clock effect of the parallel
// experiment engine on one figure reproduction: the same Figure-2 grid at
// 1 worker (the sequential order) and at one worker per CPU. Output rows
// are bit-identical across worker counts (see the determinism regression
// test in internal/experiments); on a multi-core host the many-worker
// variant's ns/op drops near-linearly until the grid runs out of tasks.
func BenchmarkFig2ByWorkers(b *testing.B) {
	counts := []int{1, runtime.GOMAXPROCS(0)}
	if counts[1] == 1 {
		counts = counts[:1] // single-CPU host: nothing to compare against
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := benchParams()
			p.Workers = w
			for n := 0; n < b.N; n++ {
				if _, err := ReproduceFigure("2", p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOnlineApproxSlot measures the per-slot decision latency of the
// paper's algorithm at a moderate scale — the quantity that matters for
// online deployment.
func BenchmarkOnlineApproxSlot(b *testing.B) {
	in, _, err := RomeScenario(ScenarioConfig{Users: 30, Horizon: 4, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		alg := NewOnlineApproxFor(in, ApproxOptions{})
		if _, err := alg.Step(0); err != nil {
			b.Fatal(err)
		}
	}
}
