package geo

import (
	"math"
	"testing"
)

// FuzzECEFRoundTrip fuzzes the closed-form geodetic inversion: over
// every latitude and −1…60 km, LLA → ECEF → LLA must come back within
// 1e-11 rad and 1e-7 m, and Altitude must be ToLLA's altitude bit for
// bit (the path integrator mixes the two along one chord).
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
