// Package geo provides the geographic primitives of the evaluation setup:
// latitude/longitude points, great-circle (haversine) distance, and
// nearest-site search. The paper measures all network delays by the
// geographic distance between GPS locations (§V-A), which this package
// reproduces.
//
// The nearest-site search is where a generated Rome trace spends its time
// (one search per taxi and slot), so Sites.Nearest screens the sites
// before it measures any. Both bounds come from the haversine's own
// half-angles x and y and need no trigonometry: since sin²z ≤ z², the
// least x² + c·y² over the sites bounds the least haversine from above,
// and since sin²z ≥ z²(1 − z²/3), (x² + c·y²)(1 − max(x², y²)/3) bounds a
// site's haversine from below. Only the sites whose lower bound comes
// within a rounding margin of 1e-11 of that upper bound are measured,
// exactly as before, so the result is the exhaustive scan's bit for bit.
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
	x, y := halfAngles(a, b)
	return arcKm(haversine(x, y, math.Cos(a.Lat*degToRad)*math.Cos(b.Lat*degToRad)))
}

// halfAngles returns half the differences of latitude and longitude from a
// to b in radians: the arguments of the haversine's two sines.
func halfAngles(a, b Point) (x, y float64) {
	return (b.Lat - a.Lat) * degToRad / 2, (b.Lon - a.Lon) * degToRad / 2
}

// haversine is the haversine of the central angle with half-angles x and
// y between points whose latitude cosines multiply to c, capped at 1
// against round-off.
func haversine(x, y, c float64) float64 {
	s1 := math.Sin(x)
	s2 := math.Sin(y)
	h := s1*s1 + c*s2*s2
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

// screenMargin is the relative slack between the screen's upper bound on
// the least haversine and the lower bound that lets a site go unmeasured:
// thousands of times the few ulps by which the computed bounds and
// haversines can stray from the exact ones, and ten times the 1e-12 band
// of Nearest's exact scan.
const screenMargin = 1e-11

// Nearest returns the index of the site closest to p and the distance to
// it in kilometres, or (-1, +Inf) when there are no sites: the first site
// whose DistanceKm is strictly below every earlier one's.
//
// A screen that needs no trigonometry makes a first pass over the sites.
// With x and y the haversine's half-angles and c the product of the
// latitude cosines, the haversine is sin²x + c·sin²y, and
// z²(1 − z²/3) ≤ sin²z ≤ z². So for c ≥ 0, a = x² + c·y² bounds a site's
// haversine from above, the least a, U, bounds the least haversine from
// above, and a·(1 − max(x², y²)/3) bounds the site's haversine from
// below. A site whose lower bound is above U·(1 + screenMargin) is more
// than 1e-11 relative farther than the nearest in haversine and is not
// measured. A NaN or infinite coordinate, or a large angle such as a wrap
// across ±180° (max(x², y²) ≥ 3), makes the lower bound NaN or
// non-positive, so that site is measured. A site whose c is negative or
// NaN (a latitude past a pole, or not finite) is measured and left out of
// U. The haversine's cap at 1 cannot tie a skipped site with the nearest:
// where a haversine is 1/2 or more, it exceeds its lower bound by more than
// 2e-4.
//
// The second pass measures the sites the screen keeps, in index order;
// the first keeps each site's lower bound, on the stack for up to 16
// sites. The distance grows with the haversine h, so a site is measured
// in kilometres only when its h is within 1e-12 relative of the best
// site's so far — far wider than the rounding of the arcsine and square
// root — and every site left out, by the band or by the screen, is
// strictly farther than the nearest. The result is the scan's bit for
// bit.
func (s *Sites) Nearest(p Point) (int, float64) {
	cosP := math.Cos(p.Lat * degToRad)
	var buf [16]float64
	lower := buf[:]
	if len(s.pts) > len(buf) {
		lower = make([]float64, len(s.pts))
	}
	u := math.Inf(1)
	for i, q := range s.pts {
		x, y := halfAngles(p, q)
		c := cosP * s.cosLat[i]
		if !(c >= 0) {
			lower[i] = math.Inf(-1)
			continue
		}
		a := x*x + c*y*y
		if a < u {
			u = a
		}
		lower[i] = a * (1 - max(x*x, y*y)*(1.0/3))
	}
	cut := u + u*screenMargin
	best, bestD, bestH := -1, math.Inf(1), math.Inf(1)
	for i, q := range s.pts {
		if lower[i] > cut {
			continue
		}
		x, y := halfAngles(p, q)
		h := haversine(x, y, cosP*s.cosLat[i])
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
