// Package weather provides the volumetric atmospheric substrate the
// TS-SDN plans around (§5): ground-truth rain cells and cloud layers
// advecting over the service region, ground-station rain gauges,
// periodically refreshed forecasts with realistic error, and the
// ITU-R regional/seasonal climatology as a backstop.
//
// The paper's key observations that this package reproduces:
//
//   - E band links attenuate heavily in rain/cloud; B2G links suffer,
//     while B2B links at stratospheric altitude fly above weather.
//   - Forecasts were only marginally better than climatology; gauges
//     at ground-station sites were the most useful input ("preferring
//     weather data from ground station sensors ... proved more
//     accurate than relying on weather forecasts alone").
//
// Time is expressed in seconds since simulation start.
package weather

import (
	"math"
	"math/rand"

	"minkowski/internal/geo"
	"minkowski/internal/itu"
)

// SeaLevelVapourDensity is the standard-atmosphere sea-level
// water-vapour density (g/m³) every attenuation integral in this
// package assumes.
const SeaLevelVapourDensity = 7.5

// MoistureCeilingM is the altitude (meters) above which the atmosphere
// is dry in every model here: generated convective cells top out below
// it, and a path sample at or above it is integrated on its altitude
// alone.
const MoistureCeilingM = 12000.0

// Region is the geographic box weather is simulated over.
type Region struct {
	LatMinDeg, LatMaxDeg float64
	LonMinDeg, LonMaxDeg float64
}

// KenyaRegion approximates the paper's 39,334 km² western-Kenya
// service region, padded so that weather can advect in from outside.
func KenyaRegion() Region {
	return Region{LatMinDeg: -4, LatMaxDeg: 2, LonMinDeg: 34, LonMaxDeg: 41}
}

// Contains reports whether a position is inside the region.
func (r Region) Contains(p geo.LLA) bool {
	lat, lon := geo.ToDeg(p.Lat), geo.ToDeg(p.Lon)
	return lat >= r.LatMinDeg && lat <= r.LatMaxDeg && lon >= r.LonMinDeg && lon <= r.LonMaxDeg
}

// Center returns the middle of the region at the given altitude.
func (r Region) Center(alt float64) geo.LLA {
	return geo.LLADeg((r.LatMinDeg+r.LatMaxDeg)/2, (r.LonMinDeg+r.LonMaxDeg)/2, alt)
}

// RainCell is one convective cell: a Gaussian rain-rate footprint
// advecting with the steering wind, growing then decaying over its
// lifetime.
type RainCell struct {
	Center   geo.LLA // current center (surface position)
	RadiusM  float64 // 1-sigma footprint radius
	PeakRate float64 // peak rain rate at maturity, mm/h
	TopAltM  float64 // cloud/rain top; attenuation applies below this
	BornAt   float64 // sim time the cell spawned
	LifeS    float64 // total lifetime
	HeadRad  float64 // advection heading
	SpeedMS  float64 // advection speed
}

// intensity returns the cell's life-cycle multiplier in [0,1]:
// triangular ramp-up to maturity at 30% of life, then decay.
func (c *RainCell) intensity(now float64) float64 {
	age := now - c.BornAt
	if age < 0 || age > c.LifeS {
		return 0
	}
	frac := age / c.LifeS
	if frac < 0.3 {
		return frac / 0.3
	}
	return (1 - frac) / 0.7
}

// RateAt returns the cell's rain rate contribution (mm/h) at a surface
// position.
func (c *RainCell) RateAt(p geo.LLA, now float64) float64 {
	in := c.intensity(now)
	if in <= 0 {
		return 0
	}
	reach := 4 * c.RadiusM
	if geo.LatitudeBeyond(c.Center, p, reach) {
		return 0
	}
	d := geo.GreatCircle(c.Center, p)
	if d > reach {
		return 0
	}
	return c.PeakRate * in * math.Exp(-d*d/(2*c.RadiusM*c.RadiusM))
}

// CloudLayer is a stratiform layer with uniform liquid water content
// across the region between two altitudes.
type CloudLayer struct {
	BaseAltM, TopAltM float64
	LWC               float64 // g/m³
}

// Config tunes the weather generator.
type Config struct {
	Region Region
	// Season selects the climatological spawn intensity.
	Season itu.Season
	// CellSpawnPerHour is the Poisson rate of new convective cells in
	// the region (scaled by season: dry ×0.3, short rains ×1, long
	// rains ×1.5).
	CellSpawnPerHour float64
	// SteeringWindMS is the typical cell advection speed.
	SteeringWindMS float64
	// Seed makes the weather reproducible.
	Seed int64
}

// DefaultConfig returns weather typical of the service region in the
// short-rains season.
func DefaultConfig() Config {
	return Config{
		Region:           KenyaRegion(),
		Season:           itu.ShortRains,
		CellSpawnPerHour: 6,
		SteeringWindMS:   8,
		Seed:             1,
	}
}

func (c Config) seasonScale() float64 {
	switch c.Season {
	case itu.DrySeason:
		return 0.3
	case itu.LongRains:
		return 1.5
	default:
		return 1.0
	}
}

// Field is the ground-truth atmosphere. It is NOT what the TS-SDN
// sees — the controller sees gauges, forecasts, and climatology; the
// radio sees the truth. The gap between them is the modelled-vs-
// measured error of Fig. 10.
type Field struct {
	cfg    Config
	rng    *rand.Rand
	now    float64
	cells  []*RainCell
	clouds []CloudLayer
	// version counts the field's mutations; see Version.
	version uint64
}

// NewField creates a weather field and warms it up so the region
// starts with a climatologically plausible cell population.
func NewField(cfg Config) *Field {
	f := &Field{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		clouds: []CloudLayer{
			{BaseAltM: 1500, TopAltM: 3000, LWC: 0.25},
		},
	}
	// Pre-spawn cells as if the generator had been running, with
	// random ages.
	expected := cfg.CellSpawnPerHour * cfg.seasonScale()
	n := int(expected) // steady-state population for ~1 h mean life
	for i := 0; i < n; i++ {
		c := f.spawnCell()
		c.BornAt = -f.rng.Float64() * c.LifeS
		f.cells = append(f.cells, c)
	}
	return f
}

// Now returns the field's current simulation time.
func (f *Field) Now() float64 { return f.now }

// Cells returns the live cell count (for tests and telemetry).
func (f *Field) Cells() int { return len(f.cells) }

// Version identifies the field's state: Step and InjectCell, the only
// two mutators, each advance it, so two reads of the field at one
// version return the same bits.
func (f *Field) Version() uint64 { return f.version }

func (f *Field) spawnCell() *RainCell {
	r := f.cfg.Region
	lat := r.LatMinDeg + f.rng.Float64()*(r.LatMaxDeg-r.LatMinDeg)
	lon := r.LonMinDeg + f.rng.Float64()*(r.LonMaxDeg-r.LonMinDeg)
	return &RainCell{
		Center:   geo.LLADeg(lat, lon, 0),
		RadiusM:  3000 + f.rng.Float64()*9000,
		PeakRate: 8 + f.rng.ExpFloat64()*25,
		TopAltM:  4000 + f.rng.Float64()*8000,
		BornAt:   f.now,
		LifeS:    1800 + f.rng.Float64()*5400, // 30–120 min
		HeadRad:  f.rng.Float64() * 2 * math.Pi,
		SpeedMS:  f.cfg.SteeringWindMS * (0.6 + 0.8*f.rng.Float64()),
	}
}

// Step advances the field by dt seconds: advects cells, retires dead
// ones, and spawns new ones at the seasonal Poisson rate.
func (f *Field) Step(dt float64) {
	f.version++
	f.now += dt
	live := f.cells[:0]
	for _, c := range f.cells {
		if f.now-c.BornAt > c.LifeS {
			continue
		}
		c.Center = geo.Offset(c.Center, c.HeadRad, c.SpeedMS*dt)
		live = append(live, c)
	}
	f.cells = live
	// Poisson spawning via per-step Bernoulli approximation.
	rate := f.cfg.CellSpawnPerHour * f.cfg.seasonScale() * dt / 3600
	for rate > 0 {
		p := math.Min(rate, 1)
		if f.rng.Float64() < p {
			f.cells = append(f.cells, f.spawnCell())
		}
		rate -= 1
	}
}

// InjectCell adds a stationary storm cell at full maturity — used for
// deterministic failure injection in tests and experiments. The cell
// is born so that it is at peak intensity now and persists for lifeS
// more seconds.
func (f *Field) InjectCell(center geo.LLA, radiusM, peakRate, topAltM, lifeS float64) {
	f.version++
	f.cells = append(f.cells, &RainCell{
		Center: center, RadiusM: radiusM, PeakRate: peakRate,
		TopAltM: topAltM,
		BornAt:  f.now - 0.3*lifeS/(1-0.3), // intensity ramps to 1 right now
		LifeS:   lifeS / (1 - 0.3),
	})
}

// moistureAt returns the true rain rate (mm/h) and cloud liquid water
// content (g/m³) at a 3-D position, right now, evaluating each cell's
// footprint once. Rain only affects the column below each cell's top;
// cloud is the stratiform layers plus the saturated cores of convective
// cells.
func (f *Field) moistureAt(p geo.LLA) (rain, lwc float64) {
	for _, l := range f.clouds {
		if p.Alt >= l.BaseAltM && p.Alt <= l.TopAltM {
			lwc += l.LWC
		}
	}
	for _, c := range f.cells {
		if p.Alt > c.TopAltM {
			continue
		}
		rate := c.RateAt(p, f.now)
		rain += rate
		// Convective cloud roughly co-located with the rain footprint.
		if p.Alt >= 1000 && rate > 0.5 {
			lwc += 0.5 * math.Min(rate/20, 1.5)
		}
	}
	return rain, lwc
}

// RainRateAt returns the true rain rate (mm/h) at a position.
func (f *Field) RainRateAt(p geo.LLA) float64 {
	rain, _ := f.moistureAt(p)
	return rain
}

// ceilingM returns an altitude no true moisture reaches: the model
// ceiling, raised to the top of any injected cell taller than it.
func (f *Field) ceilingM() float64 {
	ceiling := MoistureCeilingM
	for _, c := range f.cells {
		ceiling = math.Max(ceiling, c.TopAltM)
	}
	return ceiling
}

// pathSamples is the number of equal steps every path integral takes.
const pathSamples = 16

// integratePath is the one path integrator: it sums specific(sample)
// in dB/km over the pathSamples+1 evenly spaced points of the straight
// chord, times the step length. Every sample carries its altitude;
// only a sample below ceilingM — one that can hold moisture — is moist
// and carries latitude and longitude too, finished from the same
// inversion, so a chord that stays in the stratosphere is integrated
// without any trigonometry.
func integratePath(seg geo.Segment, ceilingM float64, specific func(p geo.LLA, moist bool) float64) float64 {
	stepKm := seg.Length() / pathSamples / 1000
	total := 0.0
	for i := 0; i <= pathSamples; i++ {
		g := seg.Point(float64(i) / pathSamples).Geodetic()
		p := geo.LLA{Alt: g.Alt}
		moist := p.Alt < ceilingM
		if moist {
			p = g.LLA()
		}
		total += specific(p, moist) * stepKm
	}
	return total
}

// PathAttenuation integrates the true attenuation in dB along the
// straight path a→b at frequency fGHz: gaseous absorption plus rain
// and cloud moisture. This is what the simulated radios experience —
// it stays on the exact closed forms (no LUT quantization) so the
// physical truth is independent of the evaluator's memoization.
func (f *Field) PathAttenuation(fGHz float64, a, b geo.LLA) float64 {
	return integratePath(geo.NewSegment(a, b), f.ceilingM(), func(p geo.LLA, moist bool) float64 {
		pr, tk, rho := itu.AtmosphereAt(p.Alt, SeaLevelVapourDensity)
		spec := itu.GaseousSpecific(fGHz, pr, tk, rho)
		if !moist {
			return spec
		}
		rain, lwc := f.moistureAt(p)
		if rain > 0 {
			spec += itu.RainSpecific(fGHz, rain, itu.Horizontal)
		}
		if lwc > 0 {
			spec += itu.CloudSpecific(fGHz, tk, lwc)
		}
		return spec
	})
}
