package weather

import (
	"math"
	"testing"

	"minkowski/internal/geo"
	"minkowski/internal/itu"
)

func TestFieldDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	f1 := NewField(cfg)
	f2 := NewField(cfg)
	for i := 0; i < 100; i++ {
		f1.Step(60)
		f2.Step(60)
	}
	p := geo.LLADeg(-1, 37, 0)
	if f1.RainRateAt(p) != f2.RainRateAt(p) {
		t.Error("same seed must give identical weather")
	}
	if f1.Cells() != f2.Cells() {
		t.Error("same seed must give identical cell populations")
	}
}

func TestFieldSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg2 := cfg
	cfg2.Seed = 99
	f1 := NewField(cfg)
	f2 := NewField(cfg2)
	same := 0
	for i := 0; i < 50; i++ {
		f1.Step(600)
		f2.Step(600)
		if f1.Cells() == f2.Cells() {
			same++
		}
	}
	if same == 50 {
		t.Error("different seeds should diverge")
	}
}

func TestCellLifecycle(t *testing.T) {
	c := &RainCell{
		Center: geo.LLADeg(-1, 37, 0), RadiusM: 5000, PeakRate: 40,
		TopAltM: 8000, BornAt: 0, LifeS: 3600,
	}
	if c.intensity(-10) != 0 {
		t.Error("cell should not rain before birth")
	}
	if c.intensity(4000) != 0 {
		t.Error("cell should not rain after death")
	}
	mature := c.intensity(0.3 * 3600)
	if math.Abs(mature-1) > 1e-9 {
		t.Errorf("maturity intensity = %v, want 1", mature)
	}
	if c.intensity(600) >= mature || c.intensity(3000) >= mature {
		t.Error("intensity must peak at maturity")
	}
}

func TestCellFootprint(t *testing.T) {
	c := &RainCell{
		Center: geo.LLADeg(-1, 37, 0), RadiusM: 5000, PeakRate: 40,
		TopAltM: 8000, BornAt: 0, LifeS: 3600,
	}
	now := 0.3 * 3600.0
	center := c.RateAt(geo.LLADeg(-1, 37, 0), now)
	if math.Abs(center-40) > 0.5 {
		t.Errorf("center rate = %v, want ~40", center)
	}
	edge := c.RateAt(geo.Offset(c.Center, 0, 5000), now)
	if edge >= center {
		t.Error("rate must fall off with distance")
	}
	far := c.RateAt(geo.Offset(c.Center, 0, 50e3), now)
	if far != 0 {
		t.Errorf("rate 50 km away = %v, want 0", far)
	}
}

func TestRainOnlyBelowCellTop(t *testing.T) {
	f := NewField(DefaultConfig())
	for i := 0; i < 30; i++ {
		f.Step(600)
	}
	// The stratosphere must always be dry: B2B links fly above
	// weather (§2.2).
	strat := geo.LLADeg(-1, 37, 18000)
	rain, lwc := f.moistureAt(strat)
	if rain != 0 {
		t.Error("rain at 18 km altitude")
	}
	if lwc != 0 {
		t.Error("cloud at 18 km altitude")
	}
}

func TestB2BAboveWeatherCheaperThanB2G(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Season = itu.LongRains
	cfg.CellSpawnPerHour = 20
	f := NewField(cfg)
	for i := 0; i < 20; i++ {
		f.Step(600)
	}
	// A B2B path at 18 km vs a B2G path crossing the troposphere, at
	// similar slant ranges.
	b1 := geo.LLADeg(-1, 36.5, 18000)
	b2 := geo.LLADeg(-1, 38.0, 18000)
	gs := geo.LLADeg(-1, 36.5, 1600)
	b2b := f.PathAttenuation(80, b1, b2)
	b2g := f.PathAttenuation(80, gs, b2)
	if b2b >= b2g {
		t.Errorf("B2B attenuation (%v dB) should be below B2G (%v dB)", b2b, b2g)
	}
	// B2B above weather should be nearly lossless beyond tiny gas
	// absorption.
	if b2b > 3 {
		t.Errorf("B2B attenuation = %v dB, want < 3 dB", b2b)
	}
}

func TestGaugeReadsTruth(t *testing.T) {
	f := NewField(DefaultConfig())
	site := geo.LLADeg(-1, 37, 1600)
	g := NewGauge(site, f, 7)
	// Make it rain at the site deterministically.
	f.cells = append(f.cells, &RainCell{
		Center: site, RadiusM: 8000, PeakRate: 30, TopAltM: 8000,
		BornAt: f.Now() - 1000, LifeS: 7200,
	})
	g.Sample()
	rate, ok := g.EstimateRain(site)
	if !ok {
		t.Fatal("gauge must cover its own site")
	}
	truth := f.RainRateAt(site)
	if rate < truth*0.85 || rate > truth*1.15 {
		t.Errorf("gauge reading %v vs truth %v: noise out of spec", rate, truth)
	}
	if _, ok := g.EstimateRain(geo.Offset(site, 0, 100e3)); ok {
		t.Error("gauge must not claim coverage 100 km away")
	}
	if g.AgeSeconds() != 0 {
		t.Errorf("freshly sampled gauge age = %v", g.AgeSeconds())
	}
}

func TestForecastHasError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CellSpawnPerHour = 20
	f := NewField(cfg)
	for i := 0; i < 20; i++ {
		f.Step(600)
	}
	fc := Issue(f, DefaultForecastConfig(), 3)
	// Compare truth vs forecast across a sample of points; they must
	// differ somewhere (forecasts are imperfect) but correlate overall.
	diff := 0.0
	for lat := -3.5; lat < 1.5; lat += 0.5 {
		for lon := 34.5; lon < 40.5; lon += 0.5 {
			p := geo.LLADeg(lat, lon, 0)
			est, _ := fc.EstimateRain(p)
			diff += math.Abs(est - f.RainRateAt(p))
		}
	}
	if diff == 0 {
		t.Error("forecast identical to truth — error model not applied")
	}
}

func TestForecastAges(t *testing.T) {
	f := NewField(DefaultConfig())
	fc := Issue(f, DefaultForecastConfig(), 3)
	if fc.AgeSeconds() != 0 {
		t.Error("fresh forecast should have age 0")
	}
	f.Step(3600)
	if fc.AgeSeconds() != 3600 {
		t.Errorf("forecast age = %v, want 3600", fc.AgeSeconds())
	}
}

func TestClimatologyAlwaysCovers(t *testing.T) {
	c := &Climatology{Model: itu.DefaultRegionalModel(), Season: itu.LongRains}
	rate, ok := c.EstimateRain(geo.LLADeg(-1, 37, 0))
	if !ok || rate <= 0 {
		t.Errorf("climatology must cover everywhere with a positive rate, got %v,%v", rate, ok)
	}
	if !math.IsInf(c.AgeSeconds(), 1) {
		t.Error("climatology must be maximally stale")
	}
}

func TestFusedPrefersFreshest(t *testing.T) {
	f := NewField(DefaultConfig())
	site := geo.LLADeg(-1, 37, 1600)
	g := NewGauge(site, f, 7)
	g.Sample()
	clim := &Climatology{Model: itu.DefaultRegionalModel(), Season: itu.LongRains}
	fu := &Fused{Sources: []Source{clim, g}}
	// At the gauge site the gauge (age 0) must win over climatology.
	gaugeRate, _ := g.EstimateRain(site)
	got, ok := fu.EstimateRain(site)
	if !ok || got != gaugeRate {
		t.Errorf("fused at gauge site = %v, want gauge reading %v", got, gaugeRate)
	}
	// Far from the gauge, climatology answers.
	far := geo.Offset(site, 0, 200e3)
	climRate, _ := clim.EstimateRain(far)
	got, ok = fu.EstimateRain(far)
	if !ok || got != climRate {
		t.Errorf("fused far away = %v, want climatology %v", got, climRate)
	}
}

func TestFusedMaxAge(t *testing.T) {
	f := NewField(DefaultConfig())
	site := geo.LLADeg(-1, 37, 1600)
	g := NewGauge(site, f, 7)
	g.Sample()
	f.Step(7200)
	fu := &Fused{Sources: []Source{g}, MaxAge: 3600}
	if _, ok := fu.EstimateRain(site); ok {
		t.Error("stale gauge should be excluded by MaxAge")
	}
}

func TestSeasonScaling(t *testing.T) {
	mk := func(s itu.Season) int {
		cfg := DefaultConfig()
		cfg.Season = s
		cfg.CellSpawnPerHour = 10
		f := NewField(cfg)
		total := 0
		for i := 0; i < 200; i++ {
			f.Step(600)
			total += f.Cells()
		}
		return total
	}
	dry, long := mk(itu.DrySeason), mk(itu.LongRains)
	if dry >= long {
		t.Errorf("dry season cell-steps (%d) should be below long rains (%d)", dry, long)
	}
}

func BenchmarkFieldStep(b *testing.B) {
	f := NewField(DefaultConfig())
	for i := 0; i < b.N; i++ {
		f.Step(60)
	}
}

func BenchmarkPathAttenuation(b *testing.B) {
	f := NewField(DefaultConfig())
	for i := 0; i < 20; i++ {
		f.Step(600)
	}
	gs := geo.LLADeg(-1, 37, 1600)
	bln := geo.LLADeg(-1.5, 37.8, 18000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.PathAttenuation(80, gs, bln)
	}
}

// TestTruthSeesCellAboveModelCeiling: an injected cell may be taller
// than MoistureCeilingM; the truth integrator must still find its rain
// on a path that flies between the ceiling and the cell top.
func TestTruthSeesCellAboveModelCeiling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CellSpawnPerHour = 0
	f := NewField(cfg)
	a, b := geo.LLADeg(-1, 36.8, 13000), geo.LLADeg(-1, 37.2, 13500)
	clear := f.PathAttenuation(80, a, b)
	f.InjectCell(geo.LLADeg(-1, 37, 0), 15e3, 60, 15000, 3600)
	if wet := f.PathAttenuation(80, a, b); wet < clear+1 {
		t.Errorf("13 km path under a 15 km-tall storm: %.3f dB, clear %.3f dB", wet, clear)
	}
}

func TestVersionAdvancesOnEveryMutation(t *testing.T) {
	f := NewField(DefaultConfig())
	v := f.Version()
	f.Step(60)
	if f.Version() == v {
		t.Error("Step did not advance Version")
	}
	v = f.Version()
	f.InjectCell(geo.LLADeg(-1, 37, 0), 10e3, 5, 6000, 600)
	if f.Version() == v {
		t.Error("InjectCell did not advance Version")
	}
}
