package core

import (
	"math"

	"edgealloc/internal/numkernel"
)

// This file holds the per-row entropy kernels of p2Objective.evalRow, its
// only caller. The objective slices its packed state down to flat
// per-cloud-row views, so the loops here know nothing of layouts, and the
// fast-math tier has a single integration point.
//
// Two tiers:
//
//   - The exact tier (entropyRowGrad) is the default:
//     one divide and one math.Log per variable, skipped where the iterate
//     equals the previous decision (exact, and most pairs: see evalRow).
//     The order of its floating-point operations is what the golden
//     schedule digests record.
//
//   - The fast tier (entropyRatioPass + numkernel.LogBatch +
//     entropyFastGrad, behind Options.FastMath)
//     replaces the per-element branch, divide and log call
//     with two branch-free passes around one batch log: pass one fuses
//     the row sum with gathering ratio[k] = (x_k+ε₂)·invDen[k] (invDen
//     precomputed by p2Objective.prepare from the fixed x'), the batch kernel
//     logs the whole row in place, and pass two accumulates the
//     objective and gradient from the logs. Each operation is within
//     1e-12 relative of the exact tier; end-to-end cost agreement is
//     pinned to 1e-8 by the property tests in fastmath_test.go.
//
// Every kernel writes the gradient: no solve asks P2 for a value alone, and
// p2Objective.Eval serves such a request through these loops.

// entropyRowGrad runs the gradient pass over one cloud row: f continues
// the caller's accumulator (seeded with the total term, so the addition
// order is the one the golden schedule digests were recorded with), rc is
// the total term's gradient, and g receives the per-variable gradient.
func entropyRowGrad(row, coef, prev, mgFac, g []float64, eps2, f, rc float64) float64 {
	for j, v := range row {
		f += coef[j] * v
		num, den := v+eps2, prev[j]+eps2
		var lg2 float64
		if num != den {
			lg2 = math.Log(num / den)
		}
		f += mgFac[j] * (num*lg2 - v)
		g[j] = coef[j] + rc + mgFac[j]*lg2
	}
	return f
}

// Fast tier --------------------------------------------------------------

// entropyRatioPass fuses the row sum with the ratio gather:
// ratio[j] = (row[j]+ε₂)·invDen[j], returning Σ row. The caller follows
// with numkernel.LogBatch(ratio, ratio).
func entropyRatioPass(row, invDen, ratio []float64, eps2 float64) float64 {
	s := 0.0
	for j, v := range row {
		s += v
		ratio[j] = (v + eps2) * invDen[j]
	}
	return s
}

// entropyFastGrad accumulates the static and migration terms from the
// batch-computed logs lg2 into the caller-seeded f and writes the
// per-variable gradient.
func entropyFastGrad(row, coef, mgFac, lg2, g []float64, eps2, f, rc float64) float64 {
	for j, v := range row {
		l := lg2[j]
		f += coef[j]*v + mgFac[j]*((v+eps2)*l-v)
		g[j] = coef[j] + rc + mgFac[j]*l
	}
	return f
}

// logBatch re-exports the kernel so the objective depends on this single
// integration point.
func logBatch(dst, src []float64) { numkernel.LogBatch(dst, src) }
