package weather

import (
	"math"
	"math/rand"
	"testing"

	"minkowski/internal/geo"
	"minkowski/internal/itu"
)

// The estimate sources as they were before the latitude reject and the
// forecast's once-per-version advection: every range test a haversine,
// every forecast cell advected again for every sample. The production
// sources must reproduce them bit for bit.

func refRateAt(c *RainCell, p geo.LLA, now float64) float64 {
	in := c.intensity(now)
	if in <= 0 {
		return 0
	}
	d := geo.GreatCircle(c.Center, p)
	if d > 4*c.RadiusM {
		return 0
	}
	return c.PeakRate * in * math.Exp(-d*d/(2*c.RadiusM*c.RadiusM))
}

type refGauge struct{ *Gauge }

func (g refGauge) EstimateRain(p geo.LLA) (float64, bool) {
	if geo.GreatCircle(g.Site, p) > g.RadiusM {
		return 0, false
	}
	return g.lastRate, true
}

type refForecast struct{ *Forecast }

func (f refForecast) EstimateRain(p geo.LLA) (float64, bool) {
	now := f.field.Now()
	total := 0.0
	for _, c := range f.cells {
		if p.Alt > c.TopAltM {
			continue
		}
		adv := *c
		adv.Center = geo.Offset(c.Center, c.HeadRad, c.SpeedMS*(now-f.issuedAt))
		total += refRateAt(&adv, p, now)
	}
	return total, true
}

// probeCenters are where the range tests are held to the reference:
// the service region, both poles' neighbourhoods, and the antimeridian
// from both sides.
var probeCenters = []geo.LLA{
	geo.LLADeg(-1.32, 36.83, 0),
	geo.LLADeg(0.5, 38, 0),
	geo.LLADeg(89.9, 10, 0),
	geo.LLADeg(-89.95, -120, 0),
	geo.LLADeg(12, 179.99, 0),
	geo.LLADeg(-30, -180, 0),
}

// probePoints returns seeded surface points around c for a range test
// of radius r: scattered out to 3r, on the circle to within 10⁻⁶ of r,
// across the pole or the antimeridian where c is near one, and due
// north and south at the exact latitude arc r/R, nudged a few ulps
// either way — where the latitude bound and the haversine part.
func probePoints(rng *rand.Rand, c geo.LLA, r float64, n int) []geo.LLA {
	var ps []geo.LLA
	for i := 0; i < n; i++ {
		alt := 15e3 * rng.Float64()
		br := 2 * math.Pi * rng.Float64()
		p := geo.Offset(c, br, 3*r*rng.Float64())
		q := geo.Offset(c, br, r*(1+(rng.Float64()-0.5)*2e-6))
		p.Alt, q.Alt = alt, alt
		ps = append(ps, p, q)
	}
	arc := r / geo.EarthMeanRadius
	for _, lat := range []float64{c.Lat + arc, c.Lat - arc} {
		if math.Abs(lat) > math.Pi/2 {
			continue
		}
		for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
			l := lat
			for k := 0; k < 4; k++ {
				ps = append(ps, geo.LLA{Lat: l, Lon: c.Lon}, geo.LLA{Lat: l, Lon: c.Lon + 1e-9})
				l = math.Nextafter(l, dir)
			}
		}
	}
	return ps
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestGaugeMatchesReference: the gauge's latitude reject changes no
// answer, and the probes reach both sides of it and the boundary.
func TestGaugeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	field := NewField(DefaultConfig())
	inside, rejected := 0, 0
	for _, c := range probeCenters {
		g := &Gauge{Site: c, RadiusM: 30e3, field: field, lastRate: 3.25}
		for _, p := range probePoints(rng, c, g.RadiusM, 400) {
			got, gotOK := g.EstimateRain(p)
			want, wantOK := refGauge{g}.EstimateRain(p)
			if gotOK != wantOK || !sameBits(got, want) {
				t.Fatalf("site %v, point %v: gauge (%v, %v), reference (%v, %v)", c, p, got, gotOK, want, wantOK)
			}
			if wantOK {
				inside++
			}
			if geo.LatitudeBeyond(c, p, g.RadiusM) {
				rejected++
			}
		}
	}
	if inside < 500 || rejected < 500 {
		t.Errorf("%d probes inside a gauge radius, %d rejected by latitude: the probes miss a side", inside, rejected)
	}
}

// TestRainCellMatchesReference: RateAt's latitude reject changes no
// rate, at live and dead cells alike.
func TestRainCellMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	wet := 0
	for _, c := range probeCenters {
		cell := &RainCell{
			Center: c, RadiusM: 3000 + 9000*rng.Float64(), PeakRate: 40,
			TopAltM: 9000, BornAt: 0, LifeS: 3600,
		}
		for _, now := range []float64{-1, 600, 1080, 3000} {
			for _, p := range probePoints(rng, c, 4*cell.RadiusM, 200) {
				got, want := cell.RateAt(p, now), refRateAt(cell, p, now)
				if !sameBits(got, want) {
					t.Fatalf("cell %v at t=%v, point %v: RateAt %v, reference %v", c, now, p, got, want)
				}
				if want > 0 {
					wet++
				}
			}
		}
	}
	if wet < 1000 {
		t.Errorf("only %d probes inside a live cell", wet)
	}
}

// TestForecastMatchesReference: advecting once per field version
// gives every sample the rate per-sample advection gave, across steps
// and mid-step injections.
func TestForecastMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	field := NewField(DefaultConfig())
	fc := Issue(field, DefaultForecastConfig(), 5)
	wet := 0
	for step := 0; step < 30; step++ {
		for _, c := range fc.cells {
			for _, p := range probePoints(rng, c.Center, 4*c.RadiusM, 10) {
				got, _ := fc.EstimateRain(p)
				want, _ := refForecast{fc}.EstimateRain(p)
				if !sameBits(got, want) {
					t.Fatalf("step %d, point %v: forecast %v, reference %v", step, p, got, want)
				}
				if want > 0 {
					wet++
				}
			}
		}
		if step%5 == 4 {
			field.InjectCell(KenyaRegion().Center(0), 8e3, 30, 8000, 1800)
		} else {
			field.Step(60)
		}
	}
	if wet < 100 {
		t.Errorf("only %d probes under forecast rain", wet)
	}
}

// TestPathAttenuationMatchesReference integrates whole paths through
// the production fusion of gauges, forecast and climatology and
// through the same fusion of the reference sources: every integral
// must agree bit for bit.
func TestPathAttenuationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultConfig()
	cfg.CellSpawnPerHour = 12
	field := NewField(cfg)
	sites := []geo.LLA{
		geo.LLADeg(-1.32, 36.83, 1700),
		geo.LLADeg(-0.09, 34.77, 1200),
		geo.LLADeg(-0.28, 36.07, 1850),
	}
	var gauges []*Gauge
	for i, s := range sites {
		field.InjectCell(s, 10e3, 25, 7000, 1e5)
		gauges = append(gauges, NewGauge(s, field, int64(i)))
	}
	clim := &Climatology{Model: itu.DefaultRegionalModel(), Season: cfg.Season}
	fc := Issue(field, DefaultForecastConfig(), 9)
	prod := &Fused{MaxAge: 1800}
	ref := &Fused{MaxAge: 1800}
	for _, g := range gauges {
		prod.Sources = append(prod.Sources, g)
		ref.Sources = append(ref.Sources, refGauge{g})
	}
	prod.Sources = append(prod.Sources, fc, clim)
	ref.Sources = append(ref.Sources, refForecast{fc}, clim)

	paths, wet := 0, 0
	for step := 0; step < 20; step++ {
		for _, g := range gauges {
			g.Sample()
		}
		for i := 0; i < 40; i++ {
			a := sites[rng.Intn(len(sites))]
			b := geo.Offset(a, 2*math.Pi*rng.Float64(), 250e3*rng.Float64())
			b.Alt = 18e3 + 2e3*rng.Float64()
			if i%4 == 0 { // a low chord through the gauges' radius
				b = geo.Offset(a, 2*math.Pi*rng.Float64(), 40e3*rng.Float64())
				b.Alt = 2e3
			}
			got := EstimatePathAttenuation(prod, 73, a, b)
			want := EstimatePathAttenuation(ref, 73, a, b)
			if !sameBits(got, want) {
				t.Fatalf("step %d, %v→%v: %v dB, reference %v dB", step, a, b, got, want)
			}
			paths++
			if want > EstimatePathAttenuation(&Fused{}, 73, a, b) { // more than clear sky
				wet++
			}
		}
		field.Step(60)
	}
	if wet < paths/2 {
		t.Errorf("only %d of %d paths saw rain", wet, paths)
	}
}
