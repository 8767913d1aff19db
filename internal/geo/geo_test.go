package geo

import (
	"math"
	"testing"
	"testing/quick"
)

var (
	romeTermini  = Point{Lat: 41.9009, Lon: 12.5012}
	romePiramide = Point{Lat: 41.8765, Lon: 12.4814}
	paris        = Point{Lat: 48.8566, Lon: 2.3522}
)

func TestDistanceKmKnownPairs(t *testing.T) {
	// Rome Termini to Paris is about 1105-1110 km great-circle.
	if d := DistanceKm(romeTermini, paris); d < 1080 || d > 1140 {
		t.Errorf("Rome-Paris = %g km, want ~1110", d)
	}
	// Termini to Piramide is roughly 3 km.
	if d := DistanceKm(romeTermini, romePiramide); d < 2 || d > 4.5 {
		t.Errorf("Termini-Piramide = %g km, want ~3", d)
	}
}

func TestDistanceKmProperties(t *testing.T) {
	property := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: math.Mod(lat1, 90), Lon: math.Mod(lon1, 180)}
		b := Point{Lat: math.Mod(lat2, 90), Lon: math.Mod(lon2, 180)}
		dab := DistanceKm(a, b)
		dba := DistanceKm(b, a)
		if math.IsNaN(dab) || dab < 0 {
			return false
		}
		if math.Abs(dab-dba) > 1e-9 {
			return false // symmetry
		}
		return DistanceKm(a, a) == 0
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNearest(t *testing.T) {
	sites := []Point{paris, romeTermini, romePiramide}
	idx, d := NewSites(sites).Nearest(Point{Lat: 41.9, Lon: 12.5})
	if idx != 1 {
		t.Errorf("Nearest = %d, want 1 (Termini)", idx)
	}
	if d > 1 {
		t.Errorf("distance %g km too large", d)
	}
	if idx, d := NewSites(nil).Nearest(paris); idx != -1 || !math.IsInf(d, 1) {
		t.Errorf("empty sites: got (%d, %g), want (-1, +Inf)", idx, d)
	}
}

func TestDistanceMatrixKm(t *testing.T) {
	sites := []Point{paris, romeTermini, romePiramide}
	m := DistanceMatrixKm(sites)
	for i := range sites {
		if m[i][i] != 0 {
			t.Errorf("diagonal [%d] = %g, want 0", i, m[i][i])
		}
		for k := range sites {
			if m[i][k] != m[k][i] {
				t.Errorf("asymmetric at (%d,%d)", i, k)
			}
			if want := DistanceKm(sites[i], sites[k]); math.Abs(m[i][k]-want) > 1e-12 {
				t.Errorf("m[%d][%d] = %g, want %g", i, k, m[i][k], want)
			}
		}
	}
}

func TestInterpolate(t *testing.T) {
	a, b := Point{Lat: 0, Lon: 0}, Point{Lat: 2, Lon: 4}
	mid := Interpolate(a, b, 0.5)
	if mid.Lat != 1 || mid.Lon != 2 {
		t.Errorf("midpoint = %+v, want (1,2)", mid)
	}
	if p := Interpolate(a, b, -3); p != a {
		t.Errorf("clamped low = %+v, want a", p)
	}
	if p := Interpolate(a, b, 9); p != b {
		t.Errorf("clamped high = %+v, want b", p)
	}
}
