package core

import (
	"math"
	"testing"

	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
)

// TestFeasibleWarmStartIsDemandTightAndWithinCapacity pins the
// transportation warm start itself: the point Step falls back to at a
// zero-allocation t = 0 must serve every user exactly and respect every
// capacity, or the fallback would start ALM in the same over-penalized
// regime it exists to avoid.
func TestFeasibleWarmStartIsDemandTightAndWithinCapacity(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 12, Horizon: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := feasibleWarmStart(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < in.J; j++ {
		served := 0.0
		for i := 0; i < in.I; i++ {
			served += warm[i*in.J+j]
		}
		if d := math.Abs(served - in.Workload[j]); d > 1e-8*(1+in.Workload[j]) {
			t.Errorf("user %d served %g, want demand-tight %g", j, served, in.Workload[j])
		}
	}
	for i := 0; i < in.I; i++ {
		tot := 0.0
		for j := 0; j < in.J; j++ {
			tot += warm[i*in.J+j]
		}
		if tot > in.Capacity[i]*(1+1e-9) {
			t.Errorf("cloud %d loaded %g over capacity %g", i, tot, in.Capacity[i])
		}
	}
}

// TestStepZeroAllZeroPrevFallback exercises the t == 0 all-zero-previous
// start on both solving paths. With no Init the formal model starts from
// x_{·,·,0} = 0: the dense path solves from that point, the candidate
// path takes the transportation fallback (see warmPoint), and either
// slot decision must be feasible; on the candidate path the fallback's
// support must additionally have been admitted into the candidate sets
// or the warm point would not even be representable.
func TestStepZeroAllZeroPrevFallback(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 10, Horizon: 1, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if in.Init != nil && !allZero(in.Init.X) {
		t.Fatal("scenario unexpectedly ships a nonzero initial allocation")
	}
	for _, candidates := range []int{0, 2} {
		alg := NewOnlineApprox(in, Options{Candidates: candidates})
		if !allZero(alg.prev.X) {
			t.Fatalf("candidates=%d: previous decision not all-zero at t=0", candidates)
		}
		x, err := alg.Step(0)
		if err != nil {
			t.Fatalf("candidates=%d: %v", candidates, err)
		}
		if err := in.CheckFeasible(model.Schedule{x}, feasTol); err != nil {
			t.Errorf("candidates=%d: slot-0 decision infeasible: %v", candidates, err)
		}
		if candidates > 0 {
			warm, err := feasibleWarmStart(in, 0)
			if err != nil {
				t.Fatal(err)
			}
			s := alg.single
			for k, v := range warm {
				if v != 0 && !s.builder.Contains(k/in.J, k%in.J) {
					t.Errorf("warm-start support (%d,%d) missing from candidate set",
						k/in.J, k%in.J)
				}
			}
		}
	}
}

// TestOnlineApproxReuseAcrossInstances guards the per-instance caches
// (prevBuf, the dual record, the ALM workspace, the sparse state) against
// leaking between runs: Solve on one algorithm object across two
// differently-shaped instances must reproduce, bit for bit, what fresh
// algorithm objects compute — on the dense and the candidate path.
func TestOnlineApproxReuseAcrossInstances(t *testing.T) {
	inA, _, err := scenario.Rome(scenario.Config{Users: 6, Horizon: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	inB, _, err := scenario.Rome(scenario.Config{Users: 9, Horizon: 4, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	for _, candidates := range []int{0, 2} {
		opts := Options{Candidates: candidates}
		shared := NewOnlineApprox(nil, opts)
		gotA, err := shared.Solve(inA)
		if err != nil {
			t.Fatalf("candidates=%d: %v", candidates, err)
		}
		gotB, err := shared.Solve(inB)
		if err != nil {
			t.Fatalf("candidates=%d: %v", candidates, err)
		}
		wantA, err := NewOnlineApprox(inA, opts).Solve(inA)
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := NewOnlineApprox(inB, opts).Solve(inB)
		if err != nil {
			t.Fatal(err)
		}
		compare := func(name string, got, want model.Schedule) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("candidates=%d %s: %d slots, want %d", candidates, name, len(got), len(want))
			}
			for tt := range want {
				for k := range want[tt].X {
					if got[tt].X[k] != want[tt].X[k] {
						t.Fatalf("candidates=%d %s slot %d: x[%d] = %v reused vs %v fresh",
							candidates, name, tt, k, got[tt].X[k], want[tt].X[k])
					}
				}
			}
		}
		compare("A", gotA, wantA)
		compare("B", gotB, wantB)
		// The dual record left on the shared object must be instance B's.
		duals := shared.Duals()
		if len(duals) != inB.T || len(duals[0]) != inB.J+inB.I {
			t.Errorf("candidates=%d: stale dual record %dx%d, want %dx%d",
				candidates, len(duals), len(duals[0]), inB.T, inB.J+inB.I)
		}
	}
}
