package geo

import (
	"math"
	"testing"
)

// FuzzECEFRoundTrip fuzzes the closed-form geodetic inversion: over
// every latitude and −1…60 km, LLA → ECEF → LLA must come back within
// 1e-11 rad and 1e-7 m, and Geodetic().Alt must be the full
// inversion's altitude bit for bit (the path integrator mixes the two
// along one chord).
func FuzzECEFRoundTrip(f *testing.F) {
	f.Add(-1.0, 37.0, 18.0)
	f.Add(90.0, 0.0, 0.0)
	f.Add(-90.0, 120.0, 60.0)
	f.Add(89.99999999, -179.0, 0.001)
	f.Add(0.0, 0.0, -1.0)
	f.Fuzz(func(t *testing.T, latDeg, lonDeg, altKm float64) {
		for _, v := range []float64{latDeg, lonDeg, altKm} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		checkRoundTrip(t, roundTripPoint(latDeg, lonDeg, altKm))
	})
}

// FuzzRangeRejectSound fuzzes the latitude reject: whenever
// LatitudeBeyond rejects b at some distance from a, GreatCircle must
// exceed that distance. Beside the input's own distance it tries the
// distances where the bound is tightest: the latitude arc itself, the
// arc less the margin, and a few ulps either side of each.
func FuzzRangeRejectSound(f *testing.F) {
	f.Add(-1.32, 36.83, -1.05, 36.83, 30e3)
	f.Add(-1.0, 37.0, -1.2, 37.4, 120e3)
	f.Add(89.9, 10.0, 89.7, -170.0, 30e3)
	f.Add(12.0, 179.99, 12.3, -179.99, 48e3)
	f.Add(-45.0, 0.0, -44.73, 0.0, 30e3)
	f.Add(0.0, 0.0, 0.0, 90.0, 1.0)
	f.Add(-73.0, 0.0, -44.73, 0.0, 30e3) // the haversine rounds to the arc
	f.Fuzz(func(t *testing.T, latA, lonA, latB, lonB, dist float64) {
		for _, v := range []float64{latA, lonA, latB, lonB, dist} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		if math.Abs(latA) > 90 || math.Abs(latB) > 90 {
			return
		}
		a, b := LLADeg(latA, lonA, 0), LLADeg(latB, lonB, 0)
		gc := GreatCircle(a, b)
		check := func(d float64) {
			if LatitudeBeyond(a, b, d) && !(gc > d) {
				t.Fatalf("%v→%v rejected at %v m, but GreatCircle is %v m", a, b, d, gc)
			}
		}
		check(dist)
		arc := math.Abs(b.Lat-a.Lat) * EarthMeanRadius
		for _, d := range []float64{arc, arc / (1 + latitudeBoundMargin)} {
			lo, hi := d, d
			for k := 0; k < 4; k++ {
				check(lo)
				check(hi)
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			}
		}
	})
}
