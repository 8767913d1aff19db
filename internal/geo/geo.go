// Package geo provides the geographic primitives of the evaluation setup:
// latitude/longitude points, great-circle (haversine) distance, and
// nearest-site search. The paper measures all network delays by the
// geographic distance between GPS locations (§V-A), which this package
// reproduces.
package geo

import "math"

// EarthRadiusKm is the mean Earth radius used by the haversine formula.
const EarthRadiusKm = 6371.0

// Point is a WGS84 latitude/longitude pair in degrees.
type Point struct {
	Lat, Lon float64
}

const degToRad = math.Pi / 180

// DistanceKm returns the great-circle distance between two points in
// kilometres.
func DistanceKm(a, b Point) float64 {
	return arcKm(haversine(a, b, math.Cos(a.Lat*degToRad), math.Cos(b.Lat*degToRad)))
}

// haversine is the haversine of the central angle between a and b, given
// the cosines of their latitudes, capped at 1 against round-off.
func haversine(a, b Point, cosA, cosB float64) float64 {
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + cosA*cosB*s2*s2
	if h > 1 {
		h = 1
	}
	return h
}

// arcKm turns a haversine into kilometres.
func arcKm(h float64) float64 { return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h)) }

// Sites is a site list prepared for repeated nearest-site searches: each
// site's cos(lat) is computed once.
type Sites struct {
	pts    []Point
	cosLat []float64
}

// NewSites prepares sites, which must not change while the result is in
// use.
func NewSites(sites []Point) *Sites {
	s := &Sites{pts: sites, cosLat: make([]float64, len(sites))}
	for i, p := range sites {
		s.cosLat[i] = math.Cos(p.Lat * degToRad)
	}
	return s
}

// Nearest returns the index of the site closest to p and the distance to
// it in kilometres, or (-1, +Inf) when there are no sites: the first site
// whose DistanceKm is strictly below every earlier one's. The distance
// grows with the haversine h, so a site is measured in kilometres only
// when its h is within 1e-12 relative of the best site's — far wider than
// the rounding of the arcsine and square root — and the result is the
// scan's bit for bit.
func (s *Sites) Nearest(p Point) (int, float64) {
	best, bestD, bestH := -1, math.Inf(1), math.Inf(1)
	cosP := math.Cos(p.Lat * degToRad)
	for i, q := range s.pts {
		h := haversine(p, q, cosP, s.cosLat[i])
		if !(h <= bestH+bestH*1e-12) {
			continue
		}
		if d := arcKm(h); d < bestD {
			best, bestD, bestH = i, d, h
		}
	}
	return best, bestD
}

// DistanceMatrixKm returns the symmetric pairwise distance matrix of the
// sites with a zero diagonal.
func DistanceMatrixKm(sites []Point) [][]float64 {
	m := make([][]float64, len(sites))
	for i := range m {
		m[i] = make([]float64, len(sites))
	}
	for i := range sites {
		for k := i + 1; k < len(sites); k++ {
			d := DistanceKm(sites[i], sites[k])
			m[i][k] = d
			m[k][i] = d
		}
	}
	return m
}

// Interpolate returns the point a fraction f of the way from a to b along
// the straight chord in lat/lon space, which is accurate at city scale.
// f is clamped to [0, 1].
func Interpolate(a, b Point, f float64) Point {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return Point{
		Lat: a.Lat + f*(b.Lat-a.Lat),
		Lon: a.Lon + f*(b.Lon-a.Lon),
	}
}
