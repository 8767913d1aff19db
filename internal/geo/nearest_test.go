package geo_test

import (
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/geo"
	"edgealloc/internal/mobility"
)

// scanNearest is what Sites.Nearest must return: every site measured in
// kilometres, the first one strictly closest.
func scanNearest(p geo.Point, sites []geo.Point) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, s := range sites {
		if d := geo.DistanceKm(p, s); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func checkNearest(t *testing.T, sites, points []geo.Point) {
	t.Helper()
	prepared := geo.NewSites(sites)
	for _, p := range points {
		i, d := prepared.Nearest(p)
		wi, wd := scanNearest(p, sites)
		if i != wi || math.Float64bits(d) != math.Float64bits(wd) {
			t.Fatalf("Nearest(%v) = (%d, %v), the scan finds (%d, %v)", p, i, d, wi, wd)
		}
	}
}

// ulps returns v moved k ulps up (k > 0) or down.
func ulps(v float64, k int) float64 {
	for ; k > 0; k-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; k < 0; k++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// bisector returns points whose haversines to a and b agree within 1e-12
// relative: a segment parallel to a→b, offset sideways by off times its
// length, is cut in half until its ends meet the great-circle bisector of a
// and b, and the float64 grid a few ulps around the crossing is searched
// for the points nearest it (the grid is coarser along some bearings than
// others, so it spans more ulps of longitude than of latitude).
func bisector(t *testing.T, a, b geo.Point, off float64) []geo.Point {
	t.Helper()
	side := geo.Point{Lat: -off * (b.Lon - a.Lon), Lon: off * (b.Lat - a.Lat)}
	lo := geo.Point{Lat: a.Lat + side.Lat, Lon: a.Lon + side.Lon}
	hi := geo.Point{Lat: b.Lat + side.Lat, Lon: b.Lon + side.Lon}
	closerToA := func(p geo.Point) bool { return geo.DistanceKm(p, a) < geo.DistanceKm(p, b) }
	if !closerToA(lo) || closerToA(hi) {
		t.Fatalf("bisector(%v, %v, %g): the segment does not cross it", a, b, off)
	}
	for {
		mid := geo.Interpolate(lo, hi, 0.5)
		if mid == lo || mid == hi {
			break
		}
		if closerToA(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	hav := func(p, q geo.Point) float64 {
		s := math.Sin(geo.DistanceKm(p, q) / (2 * geo.EarthRadiusKm))
		return s * s
	}
	var tied []geo.Point
	for dLat := -4; dLat <= 4; dLat++ {
		for dLon := -64; dLon <= 64; dLon++ {
			p := geo.Point{Lat: ulps(lo.Lat, dLat), Lon: ulps(lo.Lon, dLon)}
			if ha, hb := hav(p, a), hav(p, b); math.Abs(ha-hb) <= 1e-12*max(ha, hb) {
				tied = append(tied, p)
			}
		}
	}
	if len(tied) == 0 {
		t.Fatalf("bisector(%v, %v, %g): no point near %v ties", a, b, off, lo)
	}
	return tied
}

// TestSitesNearestMatchesScan requires the screened search to return, bit
// for bit, what a scan measuring every site in kilometres returns. The
// cases reach each way a site can escape the screen's bounds (large angles
// across the antimeridian and between antipodes, latitudes at and past the
// poles, non-finite coordinates) and the near-ties that a screen without
// its rounding margin or its curvature factor gets wrong: points on the
// bisector of two stations, and of two sites a few centimetres apart.
func TestSitesNearestMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stations := mobility.StationPoints()
	near := func(sd float64) geo.Point {
		return geo.Point{Lat: 41.9 + sd*rng.NormFloat64(), Lon: 12.5 + sd*rng.NormFloat64()}
	}
	paris := geo.Point{Lat: 48.8566, Lon: 2.3522}

	t.Run("city", func(t *testing.T) {
		sites := make([]geo.Point, 40)
		for i := range sites {
			sites[i] = near(0.1)
		}
		sites = append(sites, sites[3], sites[17], geo.Point{Lat: 2*41.9 - sites[5].Lat, Lon: sites[5].Lon})
		points := append([]geo.Point{sites[3], sites[17], {Lat: 41.9, Lon: sites[5].Lon}, paris}, sites...)
		for k := 0; k < 20000; k++ {
			points = append(points, near(0.1))
		}
		checkNearest(t, sites, points)
	})

	t.Run("antimeridian", func(t *testing.T) {
		var sites, points []geo.Point
		for _, lon := range []float64{179.9, 179.999, 180, -180, -179.999, -179.9, 540, -540} {
			sites = append(sites, geo.Point{Lat: 10 * rng.NormFloat64(), Lon: lon})
		}
		for k := 0; k < 20000; k++ {
			lon := 180 + 0.5*rng.NormFloat64()
			if lon > 180 {
				lon -= 360
			}
			points = append(points, geo.Point{Lat: 10 * rng.NormFloat64(), Lon: lon})
		}
		checkNearest(t, sites, points)
		checkNearest(t, append(sites, paris), points)
	})

	t.Run("poles-antipodes", func(t *testing.T) {
		var sites []geo.Point
		for _, lat := range []float64{90, 89.9999, -90, -89.9999} {
			sites = append(sites, geo.Point{Lat: lat, Lon: 360 * rng.Float64()})
		}
		sites = append(sites, stations...)
		for _, s := range stations {
			sites = append(sites, geo.Point{Lat: -s.Lat, Lon: s.Lon - 180})
		}
		// Latitudes past the poles have negative cosines.
		sites = append(sites, geo.Point{Lat: 95, Lon: 12.5}, geo.Point{Lat: -91, Lon: 12.5})
		var points []geo.Point
		for _, s := range sites {
			points = append(points, s, geo.Point{Lat: -s.Lat, Lon: s.Lon + 180}, geo.Point{Lat: s.Lat, Lon: s.Lon + 180})
		}
		for k := 0; k < 20000; k++ {
			lat := 90 - math.Abs(rng.NormFloat64())
			if k%2 == 1 {
				lat = -lat
			}
			if k%7 == 0 {
				lat = 180 * (rng.Float64() - 0.5) * 1.2
			}
			points = append(points, geo.Point{Lat: lat, Lon: 360 * rng.Float64()})
		}
		checkNearest(t, sites, points)
		checkNearest(t, stations, points)
	})

	t.Run("non-finite", func(t *testing.T) {
		nan, inf := math.NaN(), math.Inf(1)
		odd := []geo.Point{{Lat: nan, Lon: 12.5}, {Lat: 41.9, Lon: nan}, {Lat: inf, Lon: 12.5},
			{Lat: 41.9, Lon: -inf}, {Lat: -inf, Lon: inf}, {Lat: nan, Lon: nan}}
		points := append([]geo.Point{}, odd...)
		points = append(points, stations...)
		for k := 0; k < 2000; k++ {
			points = append(points, near(0.02))
		}
		checkNearest(t, stations, points)
		for _, o := range odd {
			sites := append([]geo.Point{o}, stations...)
			checkNearest(t, sites, points)
			checkNearest(t, append(stations[:7:7], append([]geo.Point{o}, stations[7:]...)...), points)
		}
		checkNearest(t, odd, points)
	})

	t.Run("empty-and-one", func(t *testing.T) {
		points := []geo.Point{paris, {Lat: math.NaN(), Lon: 0}, {Lat: 0, Lon: math.Inf(-1)}}
		for k := 0; k < 2000; k++ {
			points = append(points, near(0.1))
		}
		checkNearest(t, nil, points)
		checkNearest(t, []geo.Point{}, points)
		checkNearest(t, stations[8:9], points)
		checkNearest(t, []geo.Point{paris}, points)
	})

	t.Run("duplicates-mirrored", func(t *testing.T) {
		sites := append([]geo.Point{}, stations...)
		sites = append(sites, stations[8], stations[0], stations[8])
		for _, s := range stations[:5] {
			sites = append(sites, geo.Point{Lat: 2*41.9 - s.Lat, Lon: s.Lon}, geo.Point{Lat: s.Lat, Lon: 2*12.5 - s.Lon})
		}
		points := append([]geo.Point{{Lat: 41.9, Lon: 12.5}}, sites...)
		for k := 0; k < 20000; k++ {
			points = append(points, near(0.05))
		}
		checkNearest(t, sites, points)
	})

	t.Run("bisectors", func(t *testing.T) {
		var points []geo.Point
		for i := range stations {
			for k := i + 1; k < len(stations); k++ {
				for _, off := range []float64{0, 0.01, -0.03, 0.2, -0.5} {
					points = append(points, bisector(t, stations[i], stations[k], off)...)
				}
			}
		}
		checkNearest(t, stations, points)
		rev := make([]geo.Point, len(stations))
		for i, s := range stations {
			rev[len(stations)-1-i] = s
		}
		checkNearest(t, rev, points)
	})

	// Twins a few centimetres north or east of each station, and points on
	// their bisector a few ulps either side of the midpoint: there the
	// haversines tie or are an ulp apart, and their arcsines can round
	// equal. Just east or west of a north twin's midpoint, the difference
	// of the latitude cosines is what splits the two haversines.
	t.Run("centimetres", func(t *testing.T) {
		sites := append([]geo.Point{}, stations...)
		var points []geo.Point
		for _, s := range stations {
			for _, d := range []float64{5e-7, 1e-6, 2e-6} {
				north := geo.Point{Lat: s.Lat + d, Lon: s.Lon}
				east := geo.Point{Lat: s.Lat, Lon: s.Lon + d}
				sites = append(sites, north, east)
				for k := 0; k <= 3; k++ {
					lat := ulps(geo.Interpolate(s, north, 0.5).Lat, k)
					lon := ulps(geo.Interpolate(s, east, 0.5).Lon, -k)
					for n := 0; n < 10; n++ {
						points = append(points,
							geo.Point{Lat: lat, Lon: s.Lon + 3*d*rng.NormFloat64()},
							geo.Point{Lat: s.Lat + 3*d*rng.NormFloat64(), Lon: lon})
					}
					for n := 0; n < 100; n++ {
						off := d * math.Pow(10, -3.5-2*rng.Float64())
						if n%2 == 1 {
							off = -off
						}
						points = append(points, geo.Point{Lat: lat, Lon: s.Lon + off})
					}
				}
			}
		}
		checkNearest(t, sites, points)
		twinsFirst := append(append([]geo.Point{}, sites[len(stations):]...), stations...)
		checkNearest(t, twinsFirst, points)
	})

	t.Run("rome", func(t *testing.T) {
		points := append([]geo.Point{}, stations...)
		for _, s := range stations {
			for k := 0; k < 100; k++ {
				points = append(points, geo.Point{Lat: s.Lat + 1e-6*rng.NormFloat64(), Lon: s.Lon + 1e-6*rng.NormFloat64()})
			}
		}
		for len(points) < 1_000_000 {
			points = append(points, near(0.02))
		}
		checkNearest(t, stations, points)
	})
}

// BenchmarkNearest attaches city-scale points to the 15 Rome stations, as
// the taxi trace does once per user and slot.
func BenchmarkNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sites := geo.NewSites(mobility.StationPoints())
	points := make([]geo.Point, 1024)
	for i := range points {
		points[i] = geo.Point{Lat: 41.895 + 0.015*rng.NormFloat64(), Lon: 12.48 + 0.02*rng.NormFloat64()}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sites.Nearest(points[n%len(points)])
	}
}
