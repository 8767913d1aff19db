package pricing

import (
	"math"
	"math/rand"
	"testing"
)

func TestOpPricesShapeAndPositivity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	capacity := []float64{10, 20, 40}
	p := OpPrices(capacity, 30, 0, rng)
	if len(p) != 30 {
		t.Fatalf("len = %d, want 30", len(p))
	}
	for t2, row := range p {
		if len(row) != 3 {
			t.Fatalf("slot %d width %d, want 3", t2, len(row))
		}
		for i, v := range row {
			if v <= 0 {
				t.Fatalf("price[%d][%d] = %g not positive", t2, i, v)
			}
		}
	}
}

func TestOpPricesInverselyProportionalToCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	capacity := []float64{10, 40} // 4x capacity -> ~1/4 base price
	p := OpPrices(capacity, 4000, 0, rng)
	var m0, m1 float64
	for _, row := range p {
		m0 += row[0]
		m1 += row[1]
	}
	ratio := m0 / m1
	if ratio < 3 || ratio > 5 {
		t.Errorf("mean price ratio = %g, want ≈4 (economy of scale)", ratio)
	}
}

func TestOpPricesVaryOverTime(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := OpPrices([]float64{10}, 50, 0, rng)
	distinct := map[float64]bool{}
	for _, row := range p {
		distinct[row[0]] = true
	}
	if len(distinct) < 40 {
		t.Errorf("only %d distinct prices in 50 slots — not time-varying", len(distinct))
	}
}

func TestBandwidthPricesClustersAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	out, in := BandwidthPrices(9, 2, rng)
	if len(out) != 9 || len(in) != 9 {
		t.Fatalf("lengths %d/%d, want 9/9", len(out), len(in))
	}
	sum := 0.0
	for i := range out {
		if out[i] != in[i] {
			t.Errorf("cloud %d: out %g != in %g (symmetric split expected)", i, out[i], in[i])
		}
		if out[i] <= 0 {
			t.Errorf("cloud %d: nonpositive price", i)
		}
		sum += out[i] + in[i]
	}
	// Mean of b_out+b_in across clouds must equal scale (rates normalized).
	if mean := sum / 9; math.Abs(mean-2) > 1e-9 {
		t.Errorf("mean total migration price = %g, want 2", mean)
	}
	// Exactly three distinct totals (the three ISP clusters).
	distinct := map[float64]bool{}
	for i := range out {
		distinct[math.Round((out[i]+in[i])*1e9)/1e9] = true
	}
	if len(distinct) != 3 {
		t.Errorf("%d distinct cluster prices, want 3", len(distinct))
	}
}

func TestBandwidthPricesRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	out, in := BandwidthPrices(3, 1, rng)
	totals := []float64{out[0] + in[0], out[1] + in[1], out[2] + in[2]}
	// Sort-independent check: the three totals must be proportional to the
	// ISP rates {2.49, 4.86, 1.25} up to permutation.
	wantRatios := map[float64]bool{}
	mean := (2.49 + 4.86 + 1.25) / 3
	for _, r := range ISPRates {
		wantRatios[math.Round(r/mean*1e9)/1e9] = true
	}
	for _, tot := range totals {
		if !wantRatios[math.Round(tot*1e9)/1e9] {
			t.Errorf("total %g is not one of the normalized ISP rates", tot)
		}
	}
}

func TestReconfPricesPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := ReconfPrices(500, 1, 2, rng) // large std forces negative draws
	for i, v := range p {
		if v <= 0 {
			t.Fatalf("price[%d] = %g, want positive (negative tail cut)", i, v)
		}
	}
}

func TestDefaultsKickIn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if p := OpPrices([]float64{5}, 1, 0, rng); p[0][0] <= 0 {
		t.Error("OpPrices default stdRatio failed")
	}
	if out, _ := BandwidthPrices(2, 0, rng); out[0] <= 0 {
		t.Error("BandwidthPrices default scale failed")
	}
	if p := ReconfPrices(1, 0, 0, rng); p[0] <= 0 {
		t.Error("ReconfPrices defaults failed")
	}
}
