// Package wind models the stratospheric wind field Loon's balloons
// rode. The defining property (§2.2 Navigation) is that winds at
// *different altitudes* blow in *different directions*, which is what
// lets an altitude-only vehicle navigate: the Fleet Management
// Software picks the altitude whose current drifts toward the target.
//
// The field is a stack of altitude layers. Each layer's region-wide
// mean wind is a slowly evolving Ornstein–Uhlenbeck process in the
// (east, north) velocity plane, plus smooth spatial perturbation so
// that two balloons in the same layer see correlated but not
// identical winds (the paper notes correlated B2B endpoint motion as
// a reason B2B links outlived B2G links).
package wind

import (
	"math"
	"math/rand"

	"minkowski/internal/geo"
)

// Layer is one altitude band's wind state.
type Layer struct {
	// AltMinM and AltMaxM bound the band.
	AltMinM, AltMaxM float64
	// U and V are the region-mean east/north wind components, m/s.
	U, V float64
}

// Speed returns the layer's mean wind speed in m/s.
func (l Layer) Speed() float64 { return math.Hypot(l.U, l.V) }

// Heading returns the direction the wind blows TOWARD, radians
// clockwise from north.
func (l Layer) Heading() float64 {
	return geo.WrapAngle(math.Atan2(l.U, l.V))
}

// Config tunes the wind field.
type Config struct {
	// AltMinM/AltMaxM bound the navigable band (Loon flew 15–18 km;
	// we model a slightly wider band for headroom).
	AltMinM, AltMaxM float64
	// LayerCount is how many distinct bands exist.
	LayerCount int
	// MeanSpeedMS is the long-run mean layer wind speed.
	MeanSpeedMS float64
	// RelaxHours is the OU relaxation time: how quickly layer winds
	// forget their current state.
	RelaxHours float64
	// Seed makes the field reproducible.
	Seed int64
}

// DefaultConfig returns a field typical of equatorial stratosphere:
// moderate winds (5–15 m/s) in a 14–19 km navigable band split into
// 10 layers.
func DefaultConfig() Config {
	return Config{
		AltMinM: 14000, AltMaxM: 19000,
		LayerCount:  10,
		MeanSpeedMS: 9,
		RelaxHours:  18,
		Seed:        1,
	}
}

// Field is the evolving layered wind field.
type Field struct {
	cfg    Config
	rng    *rand.Rand
	layers []Layer
	now    float64
}

// NewField creates a field with layer winds drawn around the mean
// speed in well-spread directions, so navigation is possible from the
// start.
func NewField(cfg Config) *Field {
	f := &Field{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		layers: make([]Layer, cfg.LayerCount),
	}
	band := (cfg.AltMaxM - cfg.AltMinM) / float64(cfg.LayerCount)
	for i := range f.layers {
		// Spread initial headings across the compass with jitter so
		// adjacent layers differ meaningfully.
		heading := 2*math.Pi*float64(i)/float64(cfg.LayerCount) + f.rng.NormFloat64()*0.5
		speed := cfg.MeanSpeedMS * (0.5 + f.rng.Float64())
		f.layers[i] = Layer{
			AltMinM: cfg.AltMinM + band*float64(i),
			AltMaxM: cfg.AltMinM + band*float64(i+1),
			U:       speed * math.Sin(heading),
			V:       speed * math.Cos(heading),
		}
	}
	return f
}

// NumLayers returns how many altitude bands the field has.
func (f *Field) NumLayers() int { return len(f.layers) }

// Layer returns band i's current state, bottom band first.
func (f *Field) Layer(i int) Layer { return f.layers[i] }

// LayerAt returns the layer containing the altitude, clamping to the
// navigable band.
func (f *Field) LayerAt(altM float64) Layer {
	if altM <= f.layers[0].AltMinM {
		return f.layers[0]
	}
	last := f.layers[len(f.layers)-1]
	if altM >= last.AltMaxM {
		return last
	}
	band := (f.cfg.AltMaxM - f.cfg.AltMinM) / float64(f.cfg.LayerCount)
	i := int((altM - f.cfg.AltMinM) / band)
	if i < 0 {
		i = 0
	}
	if i >= len(f.layers) {
		i = len(f.layers) - 1
	}
	return f.layers[i]
}

// Step advances the field by dt seconds. Each layer's (U, V) follows
// an OU process toward a zero-mean with variance keeping speeds near
// MeanSpeedMS.
func (f *Field) Step(dt float64) {
	f.now += dt
	tau := f.cfg.RelaxHours * 3600
	theta := dt / tau
	if theta > 1 {
		theta = 1
	}
	sigma := f.cfg.MeanSpeedMS * math.Sqrt(2*theta)
	for i := range f.layers {
		l := &f.layers[i]
		l.U += -theta*l.U + sigma*f.rng.NormFloat64()*0.7
		l.V += -theta*l.V + sigma*f.rng.NormFloat64()*0.7
	}
}

// VelocityAt returns the wind velocity (east, north m/s) experienced
// at a 3-D position: the layer mean plus a smooth spatial
// perturbation (~15% of mean speed) so nearby balloons see similar
// but not identical winds.
func (f *Field) VelocityAt(p geo.LLA) (u, v float64) {
	l := f.LayerAt(p.Alt)
	latDeg, lonDeg := geo.ToDeg(p.Lat), geo.ToDeg(p.Lon)
	// Deterministic smooth perturbation field (no RNG: repeatable for
	// any query order).
	phase := p.Alt / 1000
	du := 0.15 * f.cfg.MeanSpeedMS * math.Sin(latDeg*1.3+phase)
	dv := 0.15 * f.cfg.MeanSpeedMS * math.Cos(lonDeg*1.1-phase)
	return l.U + du, l.V + dv
}

// BestLayerToward returns the layer index whose mean wind drifts most
// directly toward the target bearing (radians from north), along with
// the achieved along-track speed (m/s, negative if every layer blows
// away from the target). This is the heart of the FMS altitude
// controller.
func (f *Field) BestLayerToward(bearing float64) (index int, alongTrack float64) {
	best := math.Inf(-1)
	bi := 0
	dirU, dirV := math.Sin(bearing), math.Cos(bearing)
	for i, l := range f.layers {
		along := l.U*dirU + l.V*dirV
		// Penalize cross-track drift slightly so the controller
		// prefers layers that don't slide sideways.
		cross := math.Abs(l.U*dirV - l.V*dirU)
		score := along - 0.3*cross
		if score > best {
			best = score
			bi = i
		}
	}
	l := f.layers[bi]
	return bi, l.U*dirU + l.V*dirV
}

// LayerCenterAlt returns the center altitude of layer i.
func (f *Field) LayerCenterAlt(i int) float64 {
	if i < 0 {
		i = 0
	}
	if i >= len(f.layers) {
		i = len(f.layers) - 1
	}
	return (f.layers[i].AltMinM + f.layers[i].AltMaxM) / 2
}
