package itu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOxygenSpecificSeaLevel(t *testing.T) {
	// Published P.676 values at sea level, 15°C: roughly 0.007 dB/km
	// near 1 GHz, ~15 dB/km at the 60 GHz complex shoulder, and a few
	// tenths of dB/km in E band.
	cases := []struct {
		f        float64
		min, max float64
	}{
		{1, 0.001, 0.02},
		{10, 0.005, 0.02},
		{28, 0.01, 0.1},
		{73, 0.05, 0.8},
		{83, 0.03, 0.8},
	}
	for _, c := range cases {
		got := OxygenSpecific(c.f, 1013.25, 288.15)
		if got < c.min || got > c.max {
			t.Errorf("OxygenSpecific(%v GHz) = %v dB/km, want in [%v, %v]", c.f, got, c.min, c.max)
		}
	}
}

func TestOxygenComplexContinuity(t *testing.T) {
	// The interpolated 57–63 GHz branch should join the two closed
	// forms without discontinuities.
	g56 := OxygenSpecific(56.9, 1013.25, 288.15)
	g57 := OxygenSpecific(57.1, 1013.25, 288.15)
	g63 := OxygenSpecific(63.1, 1013.25, 288.15)
	g62 := OxygenSpecific(62.9, 1013.25, 288.15)
	if math.Abs(g57-g56) > g56 {
		t.Errorf("discontinuity at 57 GHz: %v vs %v", g56, g57)
	}
	if math.Abs(g63-g62) > g63 {
		t.Errorf("discontinuity at 63 GHz: %v vs %v", g62, g63)
	}
}

func TestWaterVapourPeaks(t *testing.T) {
	// The 22.2 GHz water line should show a local enhancement relative
	// to 15 GHz and 35 GHz at the same vapour density.
	rho := 7.5
	g15 := WaterVapourSpecific(15, 1013.25, 288.15, rho)
	g22 := WaterVapourSpecific(22.2, 1013.25, 288.15, rho)
	g35 := WaterVapourSpecific(35, 1013.25, 288.15, rho)
	if g22 <= g15 {
		t.Errorf("22.2 GHz line (%v) should exceed 15 GHz (%v)", g22, g15)
	}
	// Note: the f² factor keeps 35 GHz above the line peak's wings in
	// absolute terms for some densities; only check the line is a
	// local feature by comparing against a nearby frequency.
	g25 := WaterVapourSpecific(25, 1013.25, 288.15, rho)
	if g22 <= g25 {
		t.Errorf("22.2 GHz line (%v) should exceed 25 GHz (%v)", g22, g25)
	}
	_ = g35
}

func TestWaterVapourScalesWithDensity(t *testing.T) {
	f := func(rho float64) bool {
		rho = math.Abs(math.Mod(rho, 30))
		g1 := WaterVapourSpecific(80, 1013.25, 288.15, rho)
		g2 := WaterVapourSpecific(80, 1013.25, 288.15, 2*rho)
		// Attenuation grows with density (linearly to first order).
		return g2 >= g1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGaseousAltitudeDecay(t *testing.T) {
	// Specific attenuation should fall sharply with altitude: at 18 km
	// there is almost no water vapour and far less oxygen.
	p0, t0, r0 := AtmosphereAt(0, 7.5)
	p18, t18, r18 := AtmosphereAt(18000, 7.5)
	g0 := GaseousSpecific(80, p0, t0, r0)
	g18 := GaseousSpecific(80, p18, t18, r18)
	if g18 > g0/5 {
		t.Errorf("attenuation at 18 km (%v) should be far below sea level (%v)", g18, g0)
	}
	if p18 >= p0 || r18 >= r0 {
		t.Error("pressure and vapour density must fall with altitude")
	}
	if t18 >= t0 {
		t.Error("stratospheric temperature must be below sea level")
	}
}

func TestRainCoefficientsTablePoints(t *testing.T) {
	// Exactly at a table frequency we must return the table values.
	k, a := RainCoefficients(80, Horizontal)
	if k != 1.1704 || a != 0.7115 {
		t.Errorf("RainCoefficients(80,H) = %v,%v want table values", k, a)
	}
	k, a = RainCoefficients(80, Vertical)
	if k != 1.1668 || a != 0.7021 {
		t.Errorf("RainCoefficients(80,V) = %v,%v want table values", k, a)
	}
}

func TestRainCoefficientsInterpolation(t *testing.T) {
	// Between 70 and 80 GHz both k and α should be between the rows.
	k, a := RainCoefficients(75, Horizontal)
	if k <= 1.0315 || k >= 1.1704 {
		t.Errorf("k(75) = %v, want between rows", k)
	}
	if a >= 0.7345 || a <= 0.7115 {
		t.Errorf("α(75) = %v, want between rows", a)
	}
}

func TestRainCoefficientsClamping(t *testing.T) {
	kLo, _ := RainCoefficients(0.5, Horizontal)
	if kLo != p838Table[0].kH {
		t.Errorf("below-range frequency should clamp to first row")
	}
	kHi, _ := RainCoefficients(250, Horizontal)
	if kHi != p838Table[len(p838Table)-1].kH {
		t.Errorf("above-range frequency should clamp to last row")
	}
}

func TestRainSpecificEBand(t *testing.T) {
	// Heavy tropical rain at E band is brutal: tens of dB/km. This is
	// the paper's point about E band being far worse than Ka/Ku.
	heavy := RainSpecific(80, 50, Horizontal)
	if heavy < 10 || heavy > 40 {
		t.Errorf("RainSpecific(80 GHz, 50 mm/h) = %v dB/km, want 10–40", heavy)
	}
	ka := RainSpecific(20, 50, Horizontal)
	if heavy < 2*ka {
		t.Errorf("E band rain fade (%v) should far exceed Ka band (%v)", heavy, ka)
	}
	if RainSpecific(80, 0, Horizontal) != 0 {
		t.Error("no rain must mean no rain attenuation")
	}
}

func TestRainSpecificMonotone(t *testing.T) {
	f := func(r1, r2 float64) bool {
		r1 = math.Abs(math.Mod(r1, 150))
		r2 = math.Abs(math.Mod(r2, 150))
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		return RainSpecific(80, r1, Horizontal) <= RainSpecific(80, r2, Horizontal)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCircularPolarizationBetweenHandV(t *testing.T) {
	kH, _ := RainCoefficients(80, Horizontal)
	kV, _ := RainCoefficients(80, Vertical)
	kC, _ := RainCoefficients(80, Circular)
	lo, hi := math.Min(kH, kV), math.Max(kH, kV)
	if kC < lo || kC > hi {
		t.Errorf("circular k (%v) must lie between H (%v) and V (%v)", kC, kH, kV)
	}
}

func TestCloudSpecificCoefficient(t *testing.T) {
	// Published K_l magnitudes: ~0.4 (dB/km)/(g/m³) at 30 GHz and a
	// few at E band, at 0°C–10°C.
	k30 := CloudSpecificCoefficient(30, 273.15)
	if k30 < 0.2 || k30 > 1.2 {
		t.Errorf("K_l(30 GHz, 0°C) = %v, want 0.2–1.2", k30)
	}
	k80 := CloudSpecificCoefficient(80, 273.15)
	if k80 <= k30 {
		t.Errorf("cloud attenuation must grow with frequency: %v vs %v", k80, k30)
	}
	if k80 < 1 || k80 > 8 {
		t.Errorf("K_l(80 GHz, 0°C) = %v, want 1–8", k80)
	}
}

func TestCloudSpecificLinearInLWC(t *testing.T) {
	a := CloudSpecific(80, 280, 0.3)
	b := CloudSpecific(80, 280, 0.6)
	if math.Abs(b-2*a) > 1e-9 {
		t.Errorf("cloud attenuation must be linear in LWC: %v vs 2×%v", b, a)
	}
	if CloudSpecific(80, 280, 0) != 0 {
		t.Error("zero LWC must mean zero attenuation")
	}
}

func TestRegionalModelPessimism(t *testing.T) {
	m := DefaultRegionalModel()
	for _, season := range []Season{DrySeason, ShortRains, LongRains} {
		// The design rate sits above the plain expectation mean·P(rain):
		// the backstop is deliberately pessimistic.
		expected := m.MeanRainRate[season] * m.RainProbability[season]
		if got := m.DesignRainRate(season); got <= expected {
			t.Errorf("season %d: design rate %v not above the expected rate %v", season, got, expected)
		}
	}
	// Wet seasons must plan for more rain than the dry season.
	if dry, long := m.DesignRainRate(DrySeason), m.DesignRainRate(LongRains); long <= dry {
		t.Errorf("long-rains design rate (%v) must exceed dry season (%v)", long, dry)
	}
}

func BenchmarkGaseousSpecific(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = GaseousSpecific(80, 1013.25, 288.15, 7.5)
	}
}

func BenchmarkRainSpecific(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = RainSpecific(80, 25, Horizontal)
	}
}
