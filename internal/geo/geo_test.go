package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestECEFKnownPoints(t *testing.T) {
	cases := []struct {
		name string
		p    LLA
		want Vec3
		tol  float64
	}{
		{"equator-prime", LLADeg(0, 0, 0), Vec3{EarthSemiMajor, 0, 0}, 1e-6},
		{"north-pole", LLADeg(90, 0, 0), Vec3{0, 0, EarthSemiMinor}, 1e-6},
		{"south-pole", LLADeg(-90, 0, 0), Vec3{0, 0, -EarthSemiMinor}, 1e-6},
		{"equator-90E", LLADeg(0, 90, 0), Vec3{0, EarthSemiMajor, 0}, 1e-6},
		{"equator-alt", LLADeg(0, 0, 1000), Vec3{EarthSemiMajor + 1000, 0, 0}, 1e-6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.p.ToECEF()
			if !almostEq(got.X, c.want.X, c.tol) || !almostEq(got.Y, c.want.Y, c.tol) || !almostEq(got.Z, c.want.Z, c.tol) {
				t.Errorf("ToECEF(%v) = %+v, want %+v", c.p, got, c.want)
			}
		})
	}
}

// iterativeToLLA is the fixed-point Bowring iteration ToLLA used before
// the closed form: kept here as the independent oracle. Its p/cos(lat)
// altitude loses digits toward the poles (2e-5 m at 89.9°, metres
// beyond 89.99°), so the comparison below stops trusting it there.
func iterativeToLLA(v Vec3) LLA {
	lon := math.Atan2(v.Y, v.X)
	p := math.Hypot(v.X, v.Y)
	if p == 0 {
		lat := math.Pi / 2
		if v.Z < 0 {
			lat = -lat
		}
		return LLA{Lat: lat, Lon: 0, Alt: math.Abs(v.Z) - EarthSemiMinor}
	}
	lat := math.Atan2(v.Z, p*(1-eccSq))
	for i := 0; i < 8; i++ {
		sinLat := math.Sin(lat)
		n := EarthSemiMajor / math.Sqrt(1-eccSq*sinLat*sinLat)
		alt := p/math.Cos(lat) - n
		newLat := math.Atan2(v.Z, p*(1-eccSq*n/(n+alt)))
		if math.Abs(newLat-lat) < 1e-12 {
			lat = newLat
			break
		}
		lat = newLat
	}
	sinLat := math.Sin(lat)
	n := EarthSemiMajor / math.Sqrt(1-eccSq*sinLat*sinLat)
	return LLA{Lat: lat, Lon: lon, Alt: p/math.Cos(lat) - n}
}

// roundTripPoint maps three arbitrary floats onto the domain the
// round-trip contract covers: every latitude (poles included), every
// longitude short of the ±180° seam, −1…60 km.
func roundTripPoint(latDeg, lonDeg, altKm float64) LLA {
	lat := math.Max(-90, math.Min(90, math.Mod(latDeg, 91))) // the clamp lands a share of draws on the poles
	return LLADeg(lat, math.Mod(lonDeg, 179.9), -1000+math.Mod(math.Abs(altKm), 61)*1000)
}

func checkRoundTrip(t *testing.T, p LLA) {
	t.Helper()
	v := p.ToECEF()
	back := v.ToLLA()
	if !almostEq(back.Lat, p.Lat, 1e-11) || !almostEq(back.Alt, p.Alt, 1e-7) {
		t.Errorf("round trip of %+v: got %+v (Δlat %.3g rad, Δalt %.3g m)", p, back, back.Lat-p.Lat, back.Alt-p.Alt)
	}
	// Longitude is undefined on the polar axis.
	if math.Abs(p.Lat) < Deg(89.999) && !almostEq(back.Lon, p.Lon, 1e-11) {
		t.Errorf("round trip of %+v: Δlon %.3g rad", p, back.Lon-p.Lon)
	}
	// Exact: Altitude and ToLLA().Alt are one computation.
	if alt := v.Altitude(); alt != back.Alt {
		t.Errorf("Altitude() = %v, ToLLA().Alt = %v: must be bit-identical", alt, back.Alt)
	}
}

func TestECEFRoundTrip(t *testing.T) {
	f := func(latDeg, lonDeg, altKm float64) bool {
		checkRoundTrip(t, roundTripPoint(latDeg, lonDeg, altKm))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, lat := range []float64{-90, -89.9999, 0, 45, 89.9999, 90} {
		for _, alt := range []float64{-1000, 0, 18000, 60000} {
			checkRoundTrip(t, LLADeg(lat, 37, alt))
		}
	}
	// Exactly on the polar axis: p == 0, where the sample has no
	// longitude and the altitude is |z| − b.
	for _, z := range []float64{EarthSemiMinor + 18000, -EarthSemiMinor - 18000} {
		got := Vec3{0, 0, z}.ToLLA()
		want := LLA{Lat: math.Copysign(math.Pi/2, z), Lon: 0, Alt: 18000}
		if !almostEq(got.Lat, want.Lat, 1e-15) || got.Lon != 0 || !almostEq(got.Alt, want.Alt, 1e-7) {
			t.Errorf("ToLLA on the polar axis (z=%v) = %+v, want %+v", z, got, want)
		}
	}
}

// TestToLLAMatchesIterativeBowring holds the closed form to the
// iteration it replaced, over the same domain.
func TestToLLAMatchesIterativeBowring(t *testing.T) {
	f := func(latDeg, lonDeg, altKm float64) bool {
		p := roundTripPoint(latDeg, lonDeg, altKm)
		v := p.ToECEF()
		got, want := v.ToLLA(), iterativeToLLA(v)
		altTol := 1e-4
		if math.Abs(p.Lat) > Deg(89.9) {
			altTol = math.Inf(1)
		}
		return almostEq(got.Lat, want.Lat, 1e-11) &&
			almostEq(got.Lon, want.Lon, 1e-11) &&
			almostEq(got.Alt, want.Alt, altTol) &&
			almostEq(v.Altitude(), want.Alt, altTol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSlantRangeSymmetric(t *testing.T) {
	a := LLADeg(-1.0, 37.0, 18000)
	b := LLADeg(-1.5, 38.0, 17000)
	if d1, d2 := SlantRange(a, b), SlantRange(b, a); !almostEq(d1, d2, 1e-6) {
		t.Errorf("slant range asymmetric: %v vs %v", d1, d2)
	}
}

func TestSlantRangeVsGreatCircle(t *testing.T) {
	// Over short distances at equal altitude, slant range and
	// great-circle distance should be close (chord vs arc).
	a := LLADeg(0, 37, 0)
	b := LLADeg(0, 37.9, 0) // ~100 km
	sr := SlantRange(a, b)
	gc := GreatCircle(a, b)
	// Chord vs arc plus mean-radius-vs-equatorial-radius effects: they
	// should agree to a few hundred meters over ~100 km.
	if math.Abs(sr-gc) > 300 {
		t.Errorf("slant %v vs great-circle %v differ by more than 300 m over ~100 km", sr, gc)
	}
	if gc < 99e3 || gc > 101e3 {
		t.Errorf("great-circle distance = %v, want ~100 km", gc)
	}
}

func TestPointingStraightUp(t *testing.T) {
	ground := LLADeg(-1, 37, 0)
	above := LLADeg(-1, 37, 18000)
	pt := PointingTo(ground, above)
	if !almostEq(pt.Elevation, math.Pi/2, 0.01) {
		t.Errorf("elevation to point overhead = %v rad, want ~π/2", pt.Elevation)
	}
	if !almostEq(pt.Range, 18000, 50) {
		t.Errorf("range = %v, want ~18000", pt.Range)
	}
}

func TestPointingCardinal(t *testing.T) {
	origin := LLADeg(0, 37, 18000)
	cases := []struct {
		name   string
		target LLA
		wantAz float64 // degrees
	}{
		{"north", LLADeg(1, 37, 18000), 0},
		{"east", LLADeg(0, 38, 18000), 90},
		{"south", LLADeg(-1, 37, 18000), 180},
		{"west", LLADeg(0, 36, 18000), 270},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pt := PointingTo(origin, c.target)
			if AngleDiff(pt.Azimuth, Deg(c.wantAz)) > Deg(1.0) {
				t.Errorf("azimuth = %v°, want %v°", ToDeg(pt.Azimuth), c.wantAz)
			}
			// Equal-altitude targets ~111 km away dip slightly below
			// horizontal due to Earth curvature.
			if pt.Elevation > 0 || pt.Elevation < Deg(-2) {
				t.Errorf("elevation = %v°, want slightly negative", ToDeg(pt.Elevation))
			}
		})
	}
}

func TestPointingReciprocal(t *testing.T) {
	// Pointing a→b and b→a should have azimuths roughly opposite.
	a := LLADeg(-1.0, 37.0, 18000)
	b := LLADeg(-1.3, 37.8, 16000)
	ab := PointingTo(a, b)
	ba := PointingTo(b, a)
	if AngleDiff(ab.Azimuth, ba.Azimuth+math.Pi) > Deg(2) {
		t.Errorf("azimuths not reciprocal: %v vs %v", ToDeg(ab.Azimuth), ToDeg(ba.Azimuth))
	}
	if !almostEq(ab.Range, ba.Range, 1e-6) {
		t.Errorf("ranges differ: %v vs %v", ab.Range, ba.Range)
	}
}

func TestLineOfSightStratosphere(t *testing.T) {
	// Two balloons at 18 km, 500 km apart: LOS should clear the Earth.
	a := LLADeg(0, 35, 18000)
	b := Offset(a, Deg(90), 500e3)
	b.Alt = 18000
	if !LineOfSight(a, b, 0) {
		t.Error("500 km B2B at 18 km should have line of sight")
	}
	// Two balloons 1200 km apart at 18 km should NOT clear the Earth:
	// the horizon distance at 18 km is ~479 km, so two balloons can see
	// each other out to ~958 km.
	c := Offset(a, Deg(90), 1200e3)
	c.Alt = 18000
	if LineOfSight(a, c, 0) {
		t.Error("1200 km B2B at 18 km should be blocked by the Earth")
	}
}

func TestLineOfSightGround(t *testing.T) {
	// Ground station to balloon at 150 km ground distance, 18 km up.
	gs := LLADeg(-1, 37, 1600)
	bln := Offset(gs, 0, 150e3)
	bln.Alt = 18000
	if !LineOfSight(gs, bln, 0) {
		t.Error("GS to balloon at 150 km should have line of sight")
	}
}

func TestGrazingAltitudeEndpointCases(t *testing.T) {
	a := LLADeg(0, 0, 10000)
	b := LLADeg(0, 0.1, 20000)
	g := GrazingAltitude(a, b)
	// Closest approach to Earth's center is at or before the lower
	// endpoint, so the grazing altitude is the lower endpoint's height
	// above the mean-radius sphere (the ellipsoid bulges above the
	// sphere at the equator, so this exceeds the geodetic altitude).
	want := a.ToECEF().Norm() - EarthMeanRadius
	if !almostEq(g, want, 1.0) {
		t.Errorf("grazing altitude = %v, want %v", g, want)
	}
}

func TestOffsetDistance(t *testing.T) {
	f := func(bearingDeg, distKm float64) bool {
		start := LLADeg(-1, 37, 18000)
		d := math.Mod(math.Abs(distKm), 700) * 1000
		br := Deg(math.Mod(math.Abs(bearingDeg), 360))
		end := Offset(start, br, d)
		got := GreatCircle(start, end)
		return math.Abs(got-d) < d*0.01+1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOffsetLongitudeWrap(t *testing.T) {
	p := LLADeg(0, 179.5, 0)
	q := Offset(p, Deg(90), 200e3)
	if q.Lon > math.Pi || q.Lon <= -math.Pi {
		t.Errorf("longitude not normalized: %v", q.Lon)
	}
	if ToDeg(q.Lon) > -177 && ToDeg(q.Lon) < 177 {
		t.Errorf("crossing the antimeridian should land near ±180°, got %v°", ToDeg(q.Lon))
	}
}

// TestPointingToDoesNotAllocate: the local frame is a value; one
// pointing solution per candidate pair and per link check must not
// cost a heap object each.
func TestPointingToDoesNotAllocate(t *testing.T) {
	from, to := LLADeg(-1, 37, 18000), LLADeg(-1.2, 37.4, 1600)
	var sink Pointing
	if allocs := testing.AllocsPerRun(100, func() { sink = PointingTo(from, to) }); allocs != 0 {
		t.Errorf("PointingTo allocates %.0f times per call", allocs)
	}
	if sink.Range <= 0 {
		t.Error("no pointing computed")
	}
}

func TestENURoundTrip(t *testing.T) {
	f := NewENU(LLADeg(-1, 37, 18000))
	p := LLADeg(-1.2, 37.4, 17000).ToECEF()
	local := f.To(p)
	back := f.From(local)
	if back.Sub(p).Norm() > 1e-6 {
		t.Errorf("ENU round trip error: %v", back.Sub(p).Norm())
	}
}

func TestSampleSegment(t *testing.T) {
	a := LLADeg(-1, 37, 1600)
	b := LLADeg(-1.5, 38, 18000)
	seg := NewSegment(a, b)
	// Exact: the chord length is SlantRange's own expression.
	if seg.Length() != SlantRange(a, b) {
		t.Errorf("Length() = %v, SlantRange = %v: must be bit-identical", seg.Length(), SlantRange(a, b))
	}
	if SlantRange(seg.Point(0).ToLLA(), a) > 1e-6 {
		t.Error("Point(0) should be the start point")
	}
	if SlantRange(seg.Point(1).ToLLA(), b) > 1e-6 {
		t.Error("Point(1) should be the end point")
	}
	// Altitude should increase monotonically along the segment.
	prev := seg.Point(0).Altitude()
	for i := 1; i <= 10; i++ {
		alt := seg.Point(float64(i) / 10).Altitude()
		if alt < prev-200 {
			t.Errorf("altitude not roughly monotone at %d: %v -> %v", i, prev, alt)
		}
		prev = alt
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{2 * math.Pi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * math.Pi, math.Pi},
	}
	for _, c := range cases {
		if got := WrapAngle(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("WrapAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAngleDiff(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{0, math.Pi, math.Pi},
		{0.1, 2*math.Pi - 0.1, 0.2},
		{3, -3, 2*math.Pi - 6},
	}
	for _, c := range cases {
		if got := AngleDiff(c.a, c.b); !almostEq(got, c.want, 1e-9) {
			t.Errorf("AngleDiff(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAngleDiffProperty(t *testing.T) {
	f := func(a, b float64) bool {
		// Constrain to a physically meaningful angle range: Mod on
		// astronomically large floats has no angular meaning.
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		d := AngleDiff(a, b)
		return d >= 0 && d <= math.Pi+1e-9 && almostEq(d, AngleDiff(b, a), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInitialBearing(t *testing.T) {
	a := LLADeg(0, 37, 0)
	if br := InitialBearing(a, LLADeg(1, 37, 0)); AngleDiff(br, 0) > Deg(0.5) {
		t.Errorf("bearing due north = %v°", ToDeg(br))
	}
	if br := InitialBearing(a, LLADeg(0, 38, 0)); AngleDiff(br, Deg(90)) > Deg(0.5) {
		t.Errorf("bearing due east = %v°", ToDeg(br))
	}
}

func BenchmarkToECEF(b *testing.B) {
	p := LLADeg(-1.2, 37.4, 18000)
	for i := 0; i < b.N; i++ {
		_ = p.ToECEF()
	}
}

func BenchmarkPointingTo(b *testing.B) {
	a := LLADeg(-1.0, 37.0, 18000)
	c := LLADeg(-1.3, 37.8, 16000)
	for i := 0; i < b.N; i++ {
		_ = PointingTo(a, c)
	}
}

func BenchmarkGrazingAltitude(b *testing.B) {
	a := LLADeg(-1.0, 37.0, 18000)
	c := LLADeg(-3.0, 40.0, 18000)
	for i := 0; i < b.N; i++ {
		_ = GrazingAltitude(a, c)
	}
}
