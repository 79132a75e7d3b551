package weather

import (
	"math"

	"minkowski/internal/geo"
	"minkowski/internal/itu"
)

// SpecificAttenuationFunc returns a specific attenuation (dB/km) at a
// 3-D position at a lead time (seconds into the future, relative to
// when the volume was built).
type SpecificAttenuationFunc func(p geo.LLA, lead float64) float64

// Volume is a precomputed 4-D grid (lat × lon × alt × time) of
// specific attenuation. The Link Evaluator samples candidate paths at
// multiple future time steps; evaluating the full moisture model for
// each of ~O(n²) transceiver pairs × time steps is expensive, so the
// paper precomputed attenuation over atmospheric volumes and
// "assembl[ed] them using 4-D linear interpolation". This type is that
// cache.
type Volume struct {
	region     Region
	latN, lonN int
	altN       int
	timeN      int
	altMaxM    float64
	horizonS   float64
	data       []float64 // [t][alt][lat][lon] flattened
}

// VolumeConfig controls grid resolution.
type VolumeConfig struct {
	Region   Region
	LatCells int     // grid points along latitude
	LonCells int     // grid points along longitude
	AltCells int     // grid points from surface to AltMax
	AltMaxM  float64 // top of the moisture-relevant atmosphere
	TimeStep int     // grid points across the horizon
	HorizonS float64 // forecast horizon covered
}

// DefaultVolumeConfig returns a resolution adequate for ~10 km cells
// over the Kenya region with a 1-hour horizon.
func DefaultVolumeConfig() VolumeConfig {
	return VolumeConfig{
		Region:   KenyaRegion(),
		LatCells: 32, LonCells: 36, AltCells: 8,
		AltMaxM: MoistureCeilingM, TimeStep: 7, HorizonS: 3600,
	}
}

// BuildVolume samples the attenuation function over the grid. The
// function is called (LatCells·LonCells·AltCells·TimeStep) times; the
// result supports O(1) interpolated lookups.
func BuildVolume(cfg VolumeConfig, fn SpecificAttenuationFunc) *Volume {
	v := &Volume{
		region: cfg.Region,
		latN:   cfg.LatCells, lonN: cfg.LonCells,
		altN: cfg.AltCells, timeN: cfg.TimeStep,
		altMaxM:  cfg.AltMaxM,
		horizonS: cfg.HorizonS,
		data:     make([]float64, cfg.LatCells*cfg.LonCells*cfg.AltCells*cfg.TimeStep),
	}
	for ti := 0; ti < v.timeN; ti++ {
		lead := v.horizonS * float64(ti) / float64(v.timeN-1)
		for ai := 0; ai < v.altN; ai++ {
			alt := v.altMaxM * float64(ai) / float64(v.altN-1)
			for li := 0; li < v.latN; li++ {
				lat := cfg.Region.LatMinDeg + (cfg.Region.LatMaxDeg-cfg.Region.LatMinDeg)*float64(li)/float64(v.latN-1)
				for gi := 0; gi < v.lonN; gi++ {
					lon := cfg.Region.LonMinDeg + (cfg.Region.LonMaxDeg-cfg.Region.LonMinDeg)*float64(gi)/float64(v.lonN-1)
					v.data[v.idx(ti, ai, li, gi)] = fn(geo.LLADeg(lat, lon, alt), lead)
				}
			}
		}
	}
	return v
}

func (v *Volume) idx(t, a, la, lo int) int {
	return ((t*v.altN+a)*v.latN+la)*v.lonN + lo
}

// frac locates x in [0, n-1] grid coordinates given bounds, clamped.
func frac(x, min, max float64, n int) (int, float64) {
	if max <= min || n < 2 {
		return 0, 0
	}
	g := (x - min) / (max - min) * float64(n-1)
	if g <= 0 {
		return 0, 0
	}
	if g >= float64(n-1) {
		return n - 2, 1
	}
	i := int(g)
	return i, g - float64(i)
}

// At returns the quadrilinearly interpolated specific attenuation
// (dB/km) at a position and lead time. Positions outside the region
// clamp to the boundary; altitudes above the grid top return zero
// (clear stratosphere).
func (v *Volume) At(p geo.LLA, lead float64) float64 {
	if p.Alt >= v.altMaxM {
		return 0
	}
	ti, tf := frac(lead, 0, v.horizonS, v.timeN)
	ai, af := frac(p.Alt, 0, v.altMaxM, v.altN)
	li, lf := frac(geo.ToDeg(p.Lat), v.region.LatMinDeg, v.region.LatMaxDeg, v.latN)
	gi, gf := frac(geo.ToDeg(p.Lon), v.region.LonMinDeg, v.region.LonMaxDeg, v.lonN)
	acc := 0.0
	for dt := 0; dt <= 1; dt++ {
		wt := tf
		if dt == 0 {
			wt = 1 - tf
		}
		for da := 0; da <= 1; da++ {
			wa := af
			if da == 0 {
				wa = 1 - af
			}
			for dl := 0; dl <= 1; dl++ {
				wl := lf
				if dl == 0 {
					wl = 1 - lf
				}
				for dg := 0; dg <= 1; dg++ {
					wg := gf
					if dg == 0 {
						wg = 1 - gf
					}
					w := wt * wa * wl * wg
					if w == 0 {
						continue
					}
					acc += w * v.data[v.idx(ti+dt, ai+da, li+dl, gi+dg)]
				}
			}
		}
	}
	return acc
}

// PathAttenuation integrates the interpolated specific attenuation
// along a straight path at a lead time, adding the gaseous baseline
// from the memoized itu.AttenLUT.
func (v *Volume) PathAttenuation(fGHz float64, a, b geo.LLA, lead float64) float64 {
	lut := itu.LUTFor(fGHz, SeaLevelVapourDensity, itu.Horizontal)
	return integratePath(a, b, v.altMaxM, func(p geo.LLA, moist bool) float64 {
		spec := lut.GaseousAt(p.Alt)
		if moist {
			spec += v.At(p, lead)
		}
		return spec
	})
}

// MoistureFuncFromSource builds the sampling function for a volume
// from a Source at a given frequency: rain plus implied convective
// cloud, as specific attenuation. Lead time is ignored by most
// sources (gauges and climatology have no time dimension; forecasts
// self-advect), which matches the coarse temporal granularity the
// paper lists among its model-error causes.
func MoistureFuncFromSource(src Source, fGHz float64) SpecificAttenuationFunc {
	lut := itu.LUTFor(fGHz, SeaLevelVapourDensity, itu.Horizontal)
	return func(p geo.LLA, lead float64) float64 {
		rate, ok := src.EstimateRain(p)
		if !ok || rate <= 0 {
			return 0
		}
		spec := lut.RainSpecificAt(rate)
		spec += lut.CloudSpecificAt(p.Alt, 0.5*math.Min(rate/20, 1.5))
		return spec
	}
}
