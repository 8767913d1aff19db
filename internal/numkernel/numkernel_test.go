package numkernel

import (
	"math"
	"math/rand"
	"testing"
)

// relOrUlpErr returns the relative error of got against want, treating
// differences of a few ulps of want as zero-equivalent via the relative
// measure (want must be finite and nonzero for a meaningful answer).
func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	d := math.Abs(got - want)
	if want == 0 {
		return d
	}
	return d / math.Abs(want)
}

// sameSpecial reports whether got matches want where want is a special
// value: NaN matches NaN, otherwise the bits must agree exactly.
func sameSpecial(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// logDomain draws positive finite operands that exercise every exponent
// and the cancellation-prone neighborhood of 1.
func logDomain(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch i % 4 {
		case 0: // broad log-uniform sweep
			xs[i] = math.Exp(1400*rng.Float64() - 700)
		case 1: // near 1 from both sides
			xs[i] = 1 + (rng.Float64()-0.5)*1e-3
		case 2: // within one ulp-ish of 1
			xs[i] = 1 + (rng.Float64()-0.5)*1e-12
		default: // solver-typical ratios
			xs[i] = 0.1 + 10*rng.Float64()
		}
	}
	return xs
}

func TestLogBatchAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := logDomain(rng, 4096)
	got := make([]float64, len(xs))
	LogBatch(got, xs)
	for i, x := range xs {
		want := math.Log(x)
		if e := relErr(got[i], want); e > 1e-12 {
			t.Fatalf("LogBatch(%g) = %g, want %g (rel %g)", x, got[i], want, e)
		}
	}
}

func TestLogBatchSpecials(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1), -1, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64,              // smallest subnormal
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Float64frombits(0x0010000000000000), // smallest normal
		math.MaxFloat64, 1, 2, 0.5, math.Sqrt2, math.Sqrt2 / 2,
		math.Nextafter(1, 0), math.Nextafter(1, 2),
	}
	got := make([]float64, len(xs))
	LogBatch(got, xs)
	for i, x := range xs {
		want := math.Log(x)
		if math.IsInf(want, 0) || math.IsNaN(want) || want == 0 {
			if !sameSpecial(got[i], want) {
				t.Errorf("LogBatch(%g) = %g, want %g", x, got[i], want)
			}
			continue
		}
		if e := relErr(got[i], want); e > 1e-12 {
			t.Errorf("LogBatch(%g) = %g, want %g (rel %g)", x, got[i], want, e)
		}
	}
	// log(1) must be exactly zero: the entropy fast path relies on
	// ratio-1 elements contributing exactly nothing.
	one := []float64{1}
	LogBatch(one, one)
	if one[0] != 0 {
		t.Errorf("LogBatch(1) = %g, want exactly 0", one[0])
	}
}

// TestBatchAliasing pins the documented in-place contract: dst == src
// must produce the same results as disjoint buffers.
func TestBatchAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := logDomain(rng, 257)
	want := make([]float64, len(xs))
	LogBatch(want, xs)
	inPlace := append([]float64(nil), xs...)
	LogBatch(inPlace, inPlace)
	for i := range want {
		if math.Float64bits(inPlace[i]) != math.Float64bits(want[i]) {
			t.Fatalf("LogBatch aliasing mismatch at %d: %g vs %g", i, inPlace[i], want[i])
		}
	}
}

func TestBatchLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LogBatch: length mismatch did not panic")
		}
	}()
	LogBatch(make([]float64, 2), make([]float64, 3))
}

// TestLogBatchExhaustiveExponents walks one operand per binade (plus the
// subnormal range), so the branch-free exponent extraction is checked at
// every power-of-two boundary.
func TestLogBatchExhaustiveExponents(t *testing.T) {
	var xs []float64
	for e := -1074; e <= 1023; e++ {
		x := math.Ldexp(1, e)
		xs = append(xs, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, 0))
	}
	got := make([]float64, len(xs))
	LogBatch(got, xs)
	for i, x := range xs {
		if x <= 0 {
			continue
		}
		want := math.Log(x)
		if want == 0 {
			if got[i] != 0 {
				t.Fatalf("LogBatch(%g) = %g, want 0", x, got[i])
			}
			continue
		}
		if e := relErr(got[i], want); e > 1e-12 {
			t.Fatalf("LogBatch(%g) = %g, want %g (rel %g)", x, got[i], want, e)
		}
	}
}
