package core

import (
	"math"
	"testing"

	"edgealloc/internal/conform"
	"edgealloc/internal/model"
)

// cornerInstance builds a hand-specified instance: clouds at the given
// 1-D positions (inter-cloud delay = distance), users attached per slot
// as given, deterministic slot-varying operation prices, unit weights.
func cornerInstance(capacity, pos, workload []float64, attach [][]int) *model.Instance {
	nI, nJ, nT := len(capacity), len(workload), len(attach)
	in := &model.Instance{
		I: nI, J: nJ, T: nT,
		Capacity: capacity, Workload: workload, Attach: attach,
		WOp: 1, WSq: 1, WRc: 1, WMg: 1,
	}
	in.InterDelay = make([][]float64, nI)
	for i := range in.InterDelay {
		in.InterDelay[i] = make([]float64, nI)
		for k := range in.InterDelay[i] {
			in.InterDelay[i][k] = math.Abs(pos[i] - pos[k])
		}
		in.ReconfPrice = append(in.ReconfPrice, 1)
		in.MigOutPrice = append(in.MigOutPrice, 0.4)
		in.MigInPrice = append(in.MigInPrice, 0.5)
	}
	for t := 0; t < nT; t++ {
		op := make([]float64, nI)
		for i := range op {
			op[i] = 1 + 0.5*float64((i+2*t)%3)
		}
		acc := make([]float64, nJ)
		for j := range acc {
			acc[j] = 0.2
		}
		in.OpPrice = append(in.OpPrice, op)
		in.AccessDelay = append(in.AccessDelay, acc)
	}
	return in
}

// corner is one named degenerate instance.
type corner struct {
	name string
	in   *model.Instance
}

// tightCorner is the ΣC = Σλ corner: every cloud runs at capacity.
func tightCorner() *model.Instance {
	return cornerInstance(
		[]float64{2, 1.5, 0.5}, []float64{0, 1, 3}, []float64{1, 2, 1},
		[][]int{{0, 1, 2}, {1, 1, 0}, {2, 0, 0}})
}

// degenerateCorners are the instance corners the paper's analysis glosses
// over.
func degenerateCorners() []corner {
	return []corner{
		{"I=1", cornerInstance(
			[]float64{5}, []float64{0}, []float64{1, 2, 0.5},
			[][]int{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}})},
		{"sumC=sumLambda", tightCorner()},
		{"lambda>maxC", cornerInstance(
			[]float64{1, 1, 1.5}, []float64{0, 2, 3}, []float64{2.5, 0.5},
			[][]int{{0, 2}, {1, 2}, {1, 0}})},
		{"duplicate cloud position", cornerInstance(
			[]float64{2, 2, 3}, []float64{0, 0, 2}, []float64{1, 1.5, 0.5},
			[][]int{{0, 1, 2}, {1, 0, 2}, {2, 2, 0}})},
		{"T=1,J=1", cornerInstance(
			[]float64{1, 2}, []float64{0, 1}, []float64{1.5},
			[][]int{{1}})},
	}
}

// TestDegenerateCornersAcrossTiers runs the instance corners the paper's
// analysis glosses over through every shipped tier product, and the
// default path additionally at ε₁ = ε₂ = 1e-6, holding each full-horizon
// schedule to the conformance oracle with the dual certificate attached
// (Theorem-1 feasibility, Lemma-1 gap, certificate validity, Theorem-2
// ratio). ε₁ = ε₂ = 1e6 is not in the table: on the default path it
// leaves a certificate residual above the oracle's tolerance on the I=1
// and λ_j > max C_i corners (ROADMAP item 6(c)).
func TestDegenerateCornersAcrossTiers(t *testing.T) {
	corners := degenerateCorners()
	tiers := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"candidates", Options{Candidates: 1}},
		{"candidates+incremental", Options{Candidates: 1, Incremental: true}},
		{"incremental", Options{Incremental: true}},
		{"shards", Options{Shards: 2}},
		{"shards+candidates+fastmath", Options{Shards: 2, Candidates: 1, FastMath: true}},
		{"default,eps=1e-6", Options{Epsilon1: 1e-6, Epsilon2: 1e-6}},
	}
	for _, c := range corners {
		if err := c.in.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, tier := range tiers {
			t.Run(c.name+"/"+tier.name, func(t *testing.T) {
				alg := NewOnlineApprox(c.in, tier.opts)
				sched, err := alg.Run()
				if err != nil {
					t.Fatal(err)
				}
				cert, err := alg.Certificate()
				if err != nil {
					t.Fatal(err)
				}
				diag := &conform.Diagnostics{
					HasCertificate: true,
					LowerBoundP0:   cert.LowerBoundP0(),
					LowerBoundP1:   cert.LowerBoundP1(),
					DualResidual:   cert.Feasibility.Max(),
					NuCharge:       cert.NuCharge,
					RatioBound:     alg.CompetitiveRatioBound(),
				}
				if rep := conform.Check(c.in, sched, diag, conform.Options{}); !rep.OK() {
					t.Fatal(rep.Err())
				}
			})
		}
	}
}
