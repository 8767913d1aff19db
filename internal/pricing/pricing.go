// Package pricing generates the price processes of the paper's evaluation
// (§V-A):
//
//   - operation prices: a per-cloud base price inversely proportional to
//     capacity (economy of scale), with the real-time price drawn each slot
//     from a Gaussian with that base as mean and half the base as standard
//     deviation;
//   - bandwidth (migration) prices: three ISP clusters with the relative
//     flat-rate ratios of Tiscali Italia, Vodafone Italia and
//     Infostrada-Wind (2.49 : 4.86 : 1.25 €/Mbps·month);
//   - reconfiguration prices: static per-cloud values from a Gaussian with
//     the negative tail cut.
package pricing

import (
	"math"
	"math/rand"
)

// ISPRates are the per-month flat rates (euro per Mbps) of the three
// Internet providers the paper assigns to edge-cloud clusters. Only their
// ratios matter.
var ISPRates = [3]float64{2.49, 4.86, 1.25}

const minPrice = 1e-3

// OpPrices generates the T×I operation-price matrix. The base price of
// cloud i is mean(capacity)/capacity[i], and the slot price is
// Gaussian(base, stdRatio·base) truncated below at a small positive
// floor. The paper's setting is stdRatio = 0.5 (standard deviation half
// the base), which a stdRatio of 0 selects.
func OpPrices(capacity []float64, horizon int, stdRatio float64, rng *rand.Rand) [][]float64 {
	if stdRatio <= 0 {
		stdRatio = 0.5
	}
	meanCap := 0.0
	for _, c := range capacity {
		meanCap += c
	}
	meanCap /= float64(len(capacity))
	base := make([]float64, len(capacity))
	for i, c := range capacity {
		base[i] = meanCap / c
	}
	prices := make([][]float64, horizon)
	for t := range prices {
		row := make([]float64, len(capacity))
		for i, b := range base {
			row[i] = math.Max(minPrice, b+stdRatio*b*rng.NormFloat64())
		}
		prices[t] = row
	}
	return prices
}

// BandwidthPrices assigns each cloud to one of the three ISP clusters
// round-robin and returns the outgoing and incoming unit migration prices.
// The cluster rates are normalized so their mean is scale, then split
// evenly between the two ends of a migration (b_i^out = b_i^in), matching
// the paper's symmetric per-end accounting.
func BandwidthPrices(nClouds int, scale float64, rng *rand.Rand) (out, in []float64) {
	if scale <= 0 {
		scale = 1
	}
	mean := (ISPRates[0] + ISPRates[1] + ISPRates[2]) / 3
	out = make([]float64, nClouds)
	in = make([]float64, nClouds)
	perm := rng.Perm(nClouds) // random cluster assignment, stable ratios
	for k, i := range perm {
		rate := ISPRates[k%3] / mean * scale
		out[i] = rate / 2
		in[i] = rate / 2
	}
	return out, in
}

// ReconfPrices draws static per-cloud reconfiguration prices from a
// Gaussian(mean, std) with the negative tail cut at a small positive
// floor, per the paper's setting.
func ReconfPrices(nClouds int, mean, std float64, rng *rand.Rand) []float64 {
	if mean <= 0 {
		mean = 1
	}
	if std <= 0 {
		std = mean / 2
	}
	prices := make([]float64, nClouds)
	for i := range prices {
		prices[i] = math.Max(minPrice, mean+std*rng.NormFloat64())
	}
	return prices
}
