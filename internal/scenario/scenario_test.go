package scenario

import (
	"math"
	"testing"
)

func TestRomeBuildsValidInstance(t *testing.T) {
	in, tr, err := Rome(Config{Users: 25, Horizon: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if in.I != 15 || in.J != 25 || in.T != 20 {
		t.Fatalf("shape I=%d J=%d T=%d, want 15/25/20", in.I, in.J, in.T)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.ChurnRate() <= 0 {
		t.Error("taxi trace has zero churn")
	}
	// Capacity totals Λ/0.8 = 1.25Λ.
	capSum := 0.0
	for _, c := range in.Capacity {
		capSum += c
	}
	if want := in.TotalWorkload() * 1.25; math.Abs(capSum-want) > 1e-6*want {
		t.Errorf("capacity total %g, want %g (1.25Λ)", capSum, want)
	}
}

func TestRandomWalkRomeBuildsValidInstance(t *testing.T) {
	in, tr, err := RandomWalkRome(Config{Users: 30, Horizon: 25, Seed: 2, WorkloadDist: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.ChurnRate() < 0.3 {
		t.Errorf("random-walk churn %g suspiciously low", tr.ChurnRate())
	}
	// Random-walk users sit at stations: zero access delay.
	for t2 := range in.AccessDelay {
		for _, d := range in.AccessDelay[t2] {
			if d != 0 {
				t.Fatal("random-walk access delay must be zero")
			}
		}
	}
}

func TestScenarioDeterministicPerSeed(t *testing.T) {
	a, _, err := Rome(Config{Users: 10, Horizon: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Rome(Config{Users: 10, Horizon: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for t2 := range a.OpPrice {
		for i := range a.OpPrice[t2] {
			if a.OpPrice[t2][i] != b.OpPrice[t2][i] {
				t.Fatal("same seed produced different op prices")
			}
		}
	}
	c, _, err := Rome(Config{Users: 10, Horizon: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for t2 := range a.OpPrice {
		for i := range a.OpPrice[t2] {
			if a.OpPrice[t2][i] != c.OpPrice[t2][i] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical op prices")
	}
}

func TestMuAppliesToDynamicWeights(t *testing.T) {
	in, _, err := Rome(Config{Users: 5, Horizon: 5, Seed: 3, Mu: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if in.WOp != 1 || in.WSq != 1 || in.WRc != 0.25 || in.WMg != 0.25 {
		t.Errorf("weights = %g/%g/%g/%g, want 1/1/0.25/0.25", in.WOp, in.WSq, in.WRc, in.WMg)
	}
}

func TestWorkloadDistributionSelection(t *testing.T) {
	for _, dist := range []string{"power", "uniform", "normal"} {
		if _, _, err := Rome(Config{Users: 8, Horizon: 5, Seed: 4, WorkloadDist: dist}); err != nil {
			t.Errorf("dist %q: %v", dist, err)
		}
	}
	if _, _, err := Rome(Config{Users: 8, Horizon: 5, WorkloadDist: "bogus"}); err == nil {
		t.Error("accepted unknown workload distribution")
	}
}

func TestCapacityFollowsAttachmentFrequency(t *testing.T) {
	in, tr, err := Rome(Config{Users: 60, Horizon: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	freq := tr.AttachFrequency(in.I)
	// The busiest cloud must receive at least as much capacity as the
	// (floored) least-attached one.
	iMax, iMin := 0, 0
	for i := range freq {
		if freq[i] > freq[iMax] {
			iMax = i
		}
		if freq[i] < freq[iMin] {
			iMin = i
		}
	}
	if in.Capacity[iMax] < in.Capacity[iMin] {
		t.Errorf("capacity not frequency-proportional: busiest %g < least %g",
			in.Capacity[iMax], in.Capacity[iMin])
	}
}

// BenchmarkRomeDay builds the benchmark's 1,024-slot Rome day: 60 taxis
// attached each slot to the nearest of the 15 station clouds.
func BenchmarkRomeDay(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, _, err := Rome(Config{Users: 60, Horizon: 1024, Seed: 20140212}); err != nil {
			b.Fatal(err)
		}
	}
}
