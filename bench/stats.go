package main

import (
	"math"
	"sort"
)

// slotMin is the per-slot minimum across passes. Every pass does
// identical deterministic work at slot t, and interference from the
// shared host only ever adds time, so the minimum over fresh-process
// passes is the estimate of the undisturbed ("quiet") latency that
// repeats between runs; a single pass's median does not.
func slotMin(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := append([]float64(nil), passes[0]...)
	for _, p := range passes[1:] {
		for t, v := range p {
			if t < len(out) && v < out[t] {
				out[t] = v
			}
		}
	}
	return out
}

// percentile is the p-th percentile (0..100) of the values by linear
// interpolation between order statistics; NaN for no values.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 50) }

func minOf(vals []float64) float64 {
	m := math.Inf(1)
	for _, v := range vals {
		m = math.Min(m, v)
	}
	return m
}

func sum(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}

// tailPercentile is the highest percentile, in steps of five from 95 down
// to 55, that leaves at least ten of n samples beyond it; with fewer than
// 23 samples none does and the tail is reported at 55 with what there is.
func tailPercentile(n int) int {
	for p := 95; p > 55; p -= 5 {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 55
}

// flatten pools the per-episode series.
func flatten(series [][]float64) []float64 {
	var out []float64
	for _, s := range series {
		out = append(out, s...)
	}
	return out
}
