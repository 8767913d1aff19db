// Package numkernel provides the batch ("vectorized") fast-math kernel
// behind core.Options.FastMath: a slice-at-a-time natural log with
// documented accuracy.
//
// Why a batch kernel beats per-element math.Log in the solver hot loop:
// the entropy passes of P2's objective evaluate one logarithm per packed
// variable per FISTA evaluation, and at production sizes (J ≥ 5000) the
// per-call overhead of math.Log — the function call itself plus its
// special-case branch ladder — rivals the arithmetic. LogBatch inlines
// one branch-free range reduction and polynomial per loop iteration,
// keeping the pipeline full of independent element work, and falls back
// to the stdlib only on the rare operands (non-positive, subnormal, ±Inf,
// NaN) that need the ladder.
//
// # Accuracy contract
//
// LogBatch is accurate to ≤ 1e-12 relative error on every positive
// normal operand (measured worst cases are a few ulp, ~2e-16; the
// documented budget leaves two orders of headroom and is what callers may
// rely on). Special values follow the stdlib exactly — the kernel routes
// subnormal, zero, negative, infinite, and NaN operands to math.Log, so
// LogBatch(0) = -Inf, LogBatch(x<0) = NaN, and so on, bit for bit.
//
// FuzzFastMathVsStdlib (fuzz_test.go) differentially checks the kernel
// against math.Log over the full bit space, and the seed corpus
// (cmd/corpusgen) pins the boundary operands: powers of two, values
// adjacent to 1, and subnormals.
package numkernel

import "math"

const (
	ln2Hi = 6.93147180369123816490e-01
	ln2Lo = 1.90821492927058770002e-10
)

// sqrt2Over2Bits is the bit pattern of √2/2. Subtracting it from a
// positive normal float's bits and shifting yields the exponent k of the
// decomposition x = 2^k · m with m ∈ [√2/2, √2) — a branch-free
// mantissa centering that avoids the cancellation a [1, 2) reduction
// suffers just below powers of two (there, |log x| ≥ ln√2 whenever
// k ≠ 0, so the k·ln2 term never cancels against log m).
const sqrt2Over2Bits = 0x3fe6a09e667f3bcd

// The log kernel is table-based: m's top bits select one of 129 buckets
// of width 1/128 covering [√2/2, √2), each storing a center c as (1/c,
// log c); then log m = log c + log1p(r) with r = m·(1/c) − 1, |r| ≤
// 1/128, evaluated by a degree-6 Taylor polynomial (truncation ≤ r⁷/7,
// relative ~3e-14 at the widest r). Unlike the FDLIBM s-transform the
// reduction needs no division, which is what the per-element throughput
// of the batch loop is bound by. The two buckets adjacent to m = 1 pin
// c = 1 exactly, so near 1 the result is log1p(m−1) with r exact and no
// log c cancellation — relative accuracy holds all the way into the
// last ulp of 1 (and log(1) = 0 exactly).
//
// The table is indexed by the exponent's lowest bit and the top 7 mantissa
// bits directly, (mbits>>45)&0xff, so the loop subtracts no base and needs
// no bounds check: [√2/2, √2) spans indices logTabLo..logTabHi and the
// other entries are never read.
const logTabLo, logTabHi = 53, 181

var logTab = buildLogTab()

func buildLogTab() [256][2]float64 {
	var tab [256][2]float64
	for i := logTabLo; i <= logTabHi; i++ {
		var c float64
		switch {
		case i == 127 || i == 128:
			c = 1 // exactness around m = 1 (see above)
		case i < 128:
			c = 0.5 + float64(2*i+1)/512
		default:
			c = 1 + float64(2*(i-128)+1)/256
		}
		tab[i][0] = 1 / c
		tab[i][1] = math.Log(c)
	}
	return tab
}

// minNormalBits is the bit pattern of the smallest positive normal float
// and slowSpan the number of patterns from it up to +Inf's: bits −
// minNormalBits, as an unsigned number, is below slowSpan exactly for the
// positive normal floats. Zero and the subnormals wrap around to the top,
// Inf and NaN start at slowSpan, and a set sign bit lands above it, so one
// compare routes every operand that needs the stdlib's special-case ladder.
const (
	minNormalBits = 0x0010000000000000
	slowSpan      = 0x7fe0000000000000
)

// LogBatch writes ln(src[i]) into dst[i] for every element. dst and src
// must have equal length; dst may alias src (the kernel is elementwise).
// Accuracy and special-value behavior are documented in the package
// comment.
//
// The fast path is written out in the loop body — the √2-centered
// reduction x = 2^e·m, the bucket's (1/c, log c), the degree-6 polynomial —
// because a call per element is most of what a batch kernel exists to
// avoid.
func LogBatch(dst, src []float64) {
	if len(dst) != len(src) {
		panic("numkernel: LogBatch length mismatch")
	}
	for i, x := range src {
		bits := math.Float64bits(x)
		if bits-minNormalBits >= slowSpan {
			dst[i] = math.Log(x)
			continue
		}
		e := int64(bits-sqrt2Over2Bits) >> 52
		mbits := bits - uint64(e)<<52
		m := math.Float64frombits(mbits)
		ent := &logTab[(mbits>>45)&0xff]
		r := m*ent[0] - 1
		p := r * (1 + r*(-0.5+r*(1.0/3+r*(-0.25+r*(0.2+r*(-1.0/6))))))
		k := float64(e)
		dst[i] = k*ln2Hi + ((p + ent[1]) + k*ln2Lo)
	}
}
