package weather

import (
	"math"
	"math/rand"

	"minkowski/internal/geo"
	"minkowski/internal/itu"
)

// Source is a weather input as seen by the TS-SDN: an *estimate* of
// the rain rate and cloud water at a point. Each source reports its
// freshness so the fusion layer can prioritize (§5: "we evolved the
// system to prioritize data freshness when considering solver
// inputs").
type Source interface {
	// EstimateRain returns the estimated surface rain rate (mm/h) at
	// the position and whether this source covers the position at all.
	EstimateRain(p geo.LLA) (rate float64, ok bool)
	// AgeSeconds is how stale the source's data is.
	AgeSeconds() float64
}

// --- Rain gauges -----------------------------------------------------

// Gauge is a tipping-bucket rain gauge at a ground-station site. It
// reads the truth with small multiplicative noise and covers only a
// radius around the site.
type Gauge struct {
	Site    geo.LLA
	RadiusM float64
	field   *Field
	rng     *rand.Rand
	// last sampled value and when
	lastRate float64
	lastAt   float64
}

// NewGauge installs a gauge at a site reading from the true field.
func NewGauge(site geo.LLA, field *Field, seed int64) *Gauge {
	return &Gauge{
		Site:    site,
		RadiusM: 30e3,
		field:   field,
		rng:     rand.New(rand.NewSource(seed)),
		lastAt:  math.Inf(-1),
	}
}

// Sample reads the instrument (call once per telemetry interval).
func (g *Gauge) Sample() {
	truth := g.field.RainRateAt(g.Site)
	// ±10% multiplicative instrument noise.
	g.lastRate = truth * (0.9 + 0.2*g.rng.Float64())
	g.lastAt = g.field.Now()
}

// EstimateRain implements Source. Within the gauge radius the reading
// applies directly; beyond it the gauge has nothing to say.
func (g *Gauge) EstimateRain(p geo.LLA) (float64, bool) {
	if geo.LatitudeBeyond(g.Site, p, g.RadiusM) || geo.GreatCircle(g.Site, p) > g.RadiusM {
		return 0, false
	}
	return g.lastRate, true
}

// AgeSeconds implements Source.
func (g *Gauge) AgeSeconds() float64 { return g.field.Now() - g.lastAt }

// --- Forecasts -------------------------------------------------------

// Forecast is a 12-hourly numerical weather snapshot with realistic
// error: cell positions displaced (error growing with lead time),
// intensities rescaled, some cells missed, some phantom cells added.
// This reproduces the paper's finding that forecasts "didn't have
// sufficient accuracy and fidelity to be relied upon".
type Forecast struct {
	issuedAt float64
	field    *Field // for Now() and Version() only
	cells    []*RainCell
	// adv holds cells advected to the field's time at version advAt,
	// valid once advOK: the advection depends on nothing else, so one
	// per field version serves every sample.
	adv   []RainCell
	advAt uint64
	advOK bool
}

// ForecastConfig tunes forecast skill.
type ForecastConfig struct {
	// PositionErrKmPerHour is cell displacement error growth.
	PositionErrKmPerHour float64
	// IntensityErrFrac is the 1-sigma multiplicative intensity error.
	IntensityErrFrac float64
	// MissProb is the chance an existing cell is absent from the
	// forecast; PhantomProb the chance of one spurious cell per real
	// cell.
	MissProb, PhantomProb float64
}

// DefaultForecastConfig models a mediocre tropical convection
// forecast.
func DefaultForecastConfig() ForecastConfig {
	return ForecastConfig{
		PositionErrKmPerHour: 15,
		IntensityErrFrac:     0.5,
		MissProb:             0.3,
		PhantomProb:          0.25,
	}
}

// Issue produces a forecast from the current truth.
func Issue(field *Field, cfg ForecastConfig, seed int64) *Forecast {
	rng := rand.New(rand.NewSource(seed))
	fc := &Forecast{issuedAt: field.Now(), field: field}
	for _, c := range field.cells {
		if rng.Float64() < cfg.MissProb {
			continue
		}
		cp := *c
		// Displace and rescale.
		errM := cfg.PositionErrKmPerHour * 1000 * (0.5 + rng.Float64())
		cp.Center = geo.Offset(cp.Center, rng.Float64()*2*math.Pi, errM)
		cp.PeakRate *= math.Max(0.1, 1+rng.NormFloat64()*cfg.IntensityErrFrac)
		fc.cells = append(fc.cells, &cp)
		if rng.Float64() < cfg.PhantomProb {
			ph := *c
			ph.Center = geo.Offset(ph.Center, rng.Float64()*2*math.Pi, 50e3+rng.Float64()*100e3)
			ph.PeakRate *= 0.8
			fc.cells = append(fc.cells, &ph)
		}
	}
	return fc
}

// EstimateRain implements Source: evaluates forecast cells advected to
// the current time.
func (f *Forecast) EstimateRain(p geo.LLA) (float64, bool) {
	now := f.field.Now()
	total := 0.0
	adv := f.advected()
	for i := range adv {
		c := &adv[i]
		if p.Alt > c.TopAltM {
			continue
		}
		total += c.RateAt(p, now)
	}
	return total, true // a forecast covers the whole region
}

// advected returns the forecast cells advected from issue time to the
// field's current time, recomputed in place when the field's version
// has moved (the time only moves with it).
func (f *Forecast) advected() []RainCell {
	if v := f.field.Version(); !f.advOK || f.advAt != v {
		now := f.field.Now()
		f.adv = f.adv[:0]
		for _, c := range f.cells {
			adv := *c
			adv.Center = geo.Offset(c.Center, c.HeadRad, c.SpeedMS*(now-f.issuedAt))
			f.adv = append(f.adv, adv)
		}
		f.advAt, f.advOK = v, true
	}
	return f.adv
}

// AgeSeconds implements Source.
func (f *Forecast) AgeSeconds() float64 { return f.field.Now() - f.issuedAt }

// --- Climatology backstop --------------------------------------------

// Climatology adapts the ITU-R regional/seasonal model to the Source
// interface. It is always available, never fresh.
type Climatology struct {
	Model  *itu.RegionalModel
	Season itu.Season
}

// EstimateRain implements Source with the seasonal design rain rate.
func (c *Climatology) EstimateRain(geo.LLA) (float64, bool) {
	return c.Model.DesignRainRate(c.Season), true
}

// AgeSeconds implements Source: climatology is maximally stale.
func (c *Climatology) AgeSeconds() float64 { return math.Inf(1) }

// --- Fusion ----------------------------------------------------------

// Fused combines sources with the paper's freshness-priority rule:
// the freshest covering source wins (gauges beat forecasts beat
// climatology as long as they're being sampled). When every covering
// source has gone stale — a gauge telemetry outage, an overdue
// forecast — the fusion keeps answering (the degraded gauge →
// forecast → climatology chain) but applies an explicit staleness
// penalty so downstream link evaluation turns conservative rather
// than optimistic on dead data.
type Fused struct {
	Sources []Source
	// MaxAge discards sources staler than this (seconds); 0 means no
	// limit. In Degraded mode sources beyond MaxAge are consulted as
	// a fallback when nothing fresher covers the point, never
	// preferred.
	MaxAge float64
	// Degraded activates the stale-fallback chain: set by the
	// controller when it detects its fresh inputs have dried up
	// (gauge telemetry outage, overdue forecasts).
	Degraded bool
	// StaleAfterS is the age beyond which a winning source's
	// estimate is penalized in Degraded mode; 0 disables the
	// penalty.
	StaleAfterS float64
	// StalePenalty multiplies a stale estimate (> 1 = pessimism).
	StalePenalty float64
}

// EstimateRain implements Source by delegating to the freshest
// covering source. Ties break toward the earlier source in Sources —
// the same winner the previous sort-based implementation picked —
// while the single min-scan avoids a per-sample sort and its
// allocations (this runs once per path sample on the evaluator's hot
// path).
func (fu *Fused) EstimateRain(p geo.LLA) (float64, bool) {
	bestRate, bestAge, found := 0.0, 0.0, false
	staleRate, staleAge, staleFound := 0.0, 0.0, false
	for _, s := range fu.Sources {
		age := s.AgeSeconds()
		if fu.MaxAge > 0 && age > fu.MaxAge {
			if fu.Degraded && (!staleFound || age < staleAge) {
				if rate, ok := s.EstimateRain(p); ok {
					staleRate, staleAge, staleFound = rate, age, true
				}
			}
			continue
		}
		if found && age >= bestAge {
			continue
		}
		if rate, ok := s.EstimateRain(p); ok {
			bestRate, bestAge, found = rate, age, true
		}
	}
	if !found {
		// Degraded mode: everything covering this point is beyond
		// MaxAge. Fall down the priority chain anyway — a stale
		// answer with a pessimism penalty beats no answer.
		bestRate, bestAge, found = staleRate, staleAge, staleFound
	}
	if !found {
		return 0, false
	}
	if fu.Degraded && fu.StaleAfterS > 0 && bestAge > fu.StaleAfterS && fu.StalePenalty > 1 {
		return bestRate * fu.StalePenalty, true
	}
	return bestRate, true
}

// AgeSeconds implements Source with the freshest member's age.
func (fu *Fused) AgeSeconds() float64 {
	best := math.Inf(1)
	for _, s := range fu.Sources {
		if a := s.AgeSeconds(); a < best {
			best = a
		}
	}
	return best
}

// EstimatePathAttenuation integrates the *estimated* attenuation along
// a path using a Source for moisture, mirroring Field.PathAttenuation
// (which uses the truth). The difference between the two is exactly
// the model error that drives Fig. 10.
//
// The per-sample spectroscopy goes through the memoized itu.AttenLUT
// (exact rain; gaseous/cloud interpolated on 50 m altitude knots with
// relative error < 10⁻⁴ — see DESIGN.md §7 for the bound).
func EstimatePathAttenuation(src Source, fGHz float64, a, b geo.LLA) float64 {
	return EstimateChordAttenuation(src, fGHz, geo.NewSegment(a, b))
}

// EstimateChordAttenuation is EstimatePathAttenuation along a chord
// whose ECEF endpoints the caller already holds.
func EstimateChordAttenuation(src Source, fGHz float64, seg geo.Segment) float64 {
	lut := itu.LUTFor(fGHz, SeaLevelVapourDensity, itu.Horizontal)
	return integratePath(seg, MoistureCeilingM, func(p geo.LLA, moist bool) float64 {
		spec := lut.GaseousAt(p.Alt)
		if !moist {
			return spec
		}
		if rate, ok := src.EstimateRain(p); ok && rate > 0 {
			spec += lut.RainSpecificAt(rate)
			// Estimated convective cloud accompanying the rain.
			spec += lut.CloudSpecificAt(p.Alt, 0.5*math.Min(rate/20, 1.5))
		}
		return spec
	})
}
