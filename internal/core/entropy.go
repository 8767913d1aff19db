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
//   - The exact tier (entropyRowValue / entropyRowGrad) is the default
//     and reproduces the historical inner loops operation for operation —
//     same zero-flow log skip, same per-variable log memoization — so
//     its results are bitwise identical to the pre-refactor code. It
//     additionally counts cache hits and misses (plain integer adds on
//     loop-local variables; results are unaffected).
//
//   - The fast tier (entropyRatioPass + numkernel.LogBatch +
//     entropyFastValue / entropyFastGrad, behind Options.FastMath)
//     replaces the per-element divide, log call, and memo-cache traffic
//     with two branch-free passes around one batch log: pass one fuses
//     the row sum with gathering ratio[k] = (x_k+ε₂)·invDen[k] (invDen
//     precomputed by p2Objective.prepare from the fixed x'), the batch kernel
//     logs the whole row in place, and pass two accumulates the
//     objective (and gradient) from the logs. Each operation is within
//     1e-12 relative of the exact tier; end-to-end cost agreement is
//     pinned to 1e-8 by the property tests in fastmath_test.go.

// entropyRowValue runs the value-only static+migration pass over one
// cloud row, returning the row sum s, the accumulated objective terms f,
// and the log-memo cache hits/misses. lastNum/lastLg2 are the row's memo
// slices and are updated in place.
func entropyRowValue(row, coef, prev, mgFac, lastNum, lastLg2 []float64, eps2 float64) (s, f float64, hits, misses int64) {
	for j, v := range row {
		s += v
		f += coef[j] * v
		num, den := v+eps2, prev[j]+eps2
		var lg2 float64
		if num != den {
			if num == lastNum[j] {
				lg2 = lastLg2[j]
				hits++
			} else {
				lg2 = math.Log(num / den)
				lastNum[j] = num
				lastLg2[j] = lg2
				misses++
			}
		}
		f += mgFac[j] * (num*lg2 - v)
	}
	return s, f, hits, misses
}

// entropyRowGrad runs the gradient pass over one cloud row: f continues
// the caller's accumulator (seeded with the reconfiguration term so the
// addition order matches the historical loop exactly), rc is the row's
// reconfiguration gradient, and g receives the per-variable gradient.
func entropyRowGrad(row, coef, prev, mgFac, lastNum, lastLg2, g []float64, eps2, f, rc float64) (fOut float64, hits, misses int64) {
	for j, v := range row {
		f += coef[j] * v
		num, den := v+eps2, prev[j]+eps2
		var lg2 float64
		if num != den {
			if num == lastNum[j] {
				lg2 = lastLg2[j]
				hits++
			} else {
				lg2 = math.Log(num / den)
				lastNum[j] = num
				lastLg2[j] = lg2
				misses++
			}
		}
		f += mgFac[j] * (num*lg2 - v)
		g[j] = coef[j] + rc + mgFac[j]*lg2
	}
	return f, hits, misses
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

// entropyFastValue accumulates the static and migration terms from the
// batch-computed logs lg2.
func entropyFastValue(row, coef, mgFac, lg2 []float64, eps2 float64) float64 {
	f := 0.0
	for j, v := range row {
		f += coef[j]*v + mgFac[j]*((v+eps2)*lg2[j]-v)
	}
	return f
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
