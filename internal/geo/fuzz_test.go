package geo

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzCellIndexNeighborhood fuzzes the index's load-bearing superset
// property: for any cell size, point cloud, and query, Near must
// visit every indexed point within one cell edge of the query
// (Euclidean), exactly once. False negatives would silently drop
// candidate links; double visits would double-evaluate pairs. The
// point cloud is derived deterministically from a fuzzed seed so the
// corpus stays tiny while the geometry varies.
func FuzzCellIndexNeighborhood(f *testing.F) {
	f.Add(int64(1), 100.0, 0.0, 0.0, 0.0)
	f.Add(int64(7), 900e3, 250.5, -101.25, 42.0)
	f.Add(int64(42), 1.5, -0.75, 0.75, -1.5)
	f.Add(int64(9), 50.0, 1e7, -1e7, 3.3e6)
	f.Fuzz(func(t *testing.T, seed int64, cellM, qx, qy, qz float64) {
		if math.IsNaN(cellM) || math.IsInf(cellM, 0) || cellM <= 0 || cellM > 1e8 {
			return
		}
		for _, v := range []float64{qx, qy, qz} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e8 {
				return
			}
		}
		rng := rand.New(rand.NewSource(seed))
		ci := NewCellIndex(cellM)
		q := Vec3{X: qx, Y: qy, Z: qz}
		pts := make([]Vec3, 64)
		for i := range pts {
			// Scatter points within a few cell edges of the query so a
			// useful fraction lands inside the neighborhood regardless
			// of the fuzzed scale.
			pts[i] = Vec3{
				X: qx + (rng.Float64()*6-3)*cellM,
				Y: qy + (rng.Float64()*6-3)*cellM,
				Z: qz + (rng.Float64()*6-3)*cellM,
			}
			ci.Insert(int32(i), pts[i])
		}
		visited := make(map[int32]int)
		ci.Near(q, func(id int32) { visited[id]++ })
		for id, n := range visited {
			if n != 1 {
				t.Fatalf("seed=%d cell=%v: id %d visited %d times", seed, cellM, id, n)
			}
		}
		for i, p := range pts {
			if p.Sub(q).Norm() <= cellM && visited[int32(i)] == 0 {
				t.Fatalf("seed=%d cell=%v: point %d at distance %v missed by Near",
					seed, cellM, i, p.Sub(q).Norm())
			}
		}
	})
}

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
