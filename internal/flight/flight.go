// Package flight implements balloon flight dynamics and the Fleet
// Management Software (FMS) that navigates them (§2.2 Navigation):
// balloons have no lateral thrust, only altitude control, so the FMS
// "modeled winds at different altitudes, then automatically
// instructed balloons to change altitude to catch the desired wind
// currents and drift toward a target over the service region."
//
// The package also provides the trajectory *prediction* the TS-SDN
// consumes: the FMS's forecast of future positions, which carries
// growing error — one of the paper's listed sources of model error
// ("errors due to inaccurate inputs (e.g. balloon trajectory
// estimates)").
package flight

import (
	"fmt"
	"math"
	"math/rand"

	"minkowski/internal/geo"
	"minkowski/internal/wind"
)

// VerticalRateMS is how fast a balloon can change altitude. Loon
// balloons pumped air ballast; ~1.5 m/s is representative.
const VerticalRateMS = 1.5

// Balloon is one vehicle's flight state.
type Balloon struct {
	// ID identifies the vehicle ("hbal-001").
	ID string
	// Pos is the current position.
	Pos geo.LLA
	// TargetAltM is the altitude the FMS has commanded.
	TargetAltM float64
}

// Step advances the balloon dt seconds through the wind field:
// vertical motion toward the commanded altitude at the pump rate,
// horizontal drift with the local wind.
func (b *Balloon) Step(w *wind.Field, dt float64) {
	// Vertical.
	dAlt := b.TargetAltM - b.Pos.Alt
	maxD := VerticalRateMS * dt
	if math.Abs(dAlt) > maxD {
		dAlt = math.Copysign(maxD, dAlt)
	}
	b.Pos.Alt += dAlt
	// Horizontal.
	u, v := w.VelocityAt(b.Pos)
	dist := math.Hypot(u, v) * dt
	if dist > 0 {
		heading := math.Atan2(u, v)
		b.Pos = geo.Offset(b.Pos, heading, dist)
		b.Pos.Alt = clampAlt(b.Pos.Alt)
	}
}

func clampAlt(a float64) float64 {
	if a < 13000 {
		return 13000
	}
	if a > 20000 {
		return 20000
	}
	return a
}

// FMS is the fleet management controller: it holds the fleet, a
// target point over the service region, and periodically re-commands
// balloon altitudes to station-seek. It can command "hundreds of
// altitude changes per day" per balloon; we re-evaluate every
// DecisionInterval.
type FMS struct {
	// Target is the station-keeping point (the service region's
	// center).
	Target geo.LLA
	// StationRadiusM: balloons within this radius hold whatever layer
	// minimizes drift; beyond it they chase the target.
	StationRadiusM float64
	// RecycleRadiusM: balloons farther than this are considered lost
	// downwind and are recycled (replaced by a fresh launch entering
	// from the region edge) — modelling Loon's continuous launch
	// cadence that kept "dozens of balloons continuously seeking the
	// serving region".
	RecycleRadiusM float64
	// DecisionInterval is seconds between altitude re-decisions.
	DecisionInterval float64

	Fleet []*Balloon

	wind      *wind.Field
	rng       *rand.Rand
	now       float64
	lastDecid float64
	nextID    int
	// Recycled counts replacements (telemetry).
	Recycled int
}

// Config configures the FMS and initial fleet.
type Config struct {
	Target           geo.LLA
	FleetSize        int
	StationRadiusM   float64
	RecycleRadiusM   float64
	DecisionInterval float64
	// ScatterRadiusM spreads the initial fleet around the target.
	ScatterRadiusM float64
	Seed           int64
}

// DefaultConfig returns a Kenya-like deployment: ~30 balloons
// station-seeking a point, scattered over a few hundred km.
func DefaultConfig(target geo.LLA) Config {
	return Config{
		Target:           target,
		FleetSize:        30,
		StationRadiusM:   150e3,
		RecycleRadiusM:   900e3,
		DecisionInterval: 600,
		ScatterRadiusM:   350e3,
		Seed:             1,
	}
}

// NewFMS creates the controller and launches the initial fleet.
func NewFMS(cfg Config, w *wind.Field) *FMS {
	f := &FMS{
		Target:           cfg.Target,
		StationRadiusM:   cfg.StationRadiusM,
		RecycleRadiusM:   cfg.RecycleRadiusM,
		DecisionInterval: cfg.DecisionInterval,
		wind:             w,
		rng:              rand.New(rand.NewSource(cfg.Seed)),
		lastDecid:        -1e18,
	}
	for i := 0; i < cfg.FleetSize; i++ {
		f.Fleet = append(f.Fleet, f.launch(cfg.ScatterRadiusM))
	}
	return f
}

// launch creates a fresh balloon scattered around the target.
func (f *FMS) launch(scatterM float64) *Balloon {
	f.nextID++
	bearing := f.rng.Float64() * 2 * math.Pi
	dist := f.rng.Float64() * scatterM
	pos := geo.Offset(f.Target, bearing, dist)
	pos.Alt = 14000 + f.rng.Float64()*5000
	return &Balloon{
		ID:         fmt.Sprintf("hbal-%03d", f.nextID),
		Pos:        pos,
		TargetAltM: pos.Alt,
	}
}

// Step advances the whole fleet by dt seconds, re-deciding altitudes
// on the decision interval and recycling lost balloons.
func (f *FMS) Step(dt float64) {
	f.now += dt
	decide := f.now-f.lastDecid >= f.DecisionInterval
	if decide {
		f.lastDecid = f.now
	}
	for i, b := range f.Fleet {
		if decide {
			f.decideAltitude(b)
		}
		b.Step(f.wind, dt)
		if geo.GreatCircle(b.Pos, f.Target) > f.RecycleRadiusM {
			// Lost downwind: recycle. A fresh vehicle enters upwind of
			// the target so it will drift across the region.
			f.Fleet[i] = f.recycleLaunch()
			f.Recycled++
		}
	}
}

// recycleLaunch creates a replacement balloon entering from upwind.
func (f *FMS) recycleLaunch() *Balloon {
	// Find the dominant wind heading at a random layer and enter from
	// the opposite side.
	l := f.wind.Layer(f.rng.Intn(f.wind.NumLayers()))
	// Enter well inside the recycle boundary so the fresh vehicle has
	// time to work its way in before being declared lost itself.
	entryDist := math.Min(400e3, 0.45*f.RecycleRadiusM) + f.rng.Float64()*math.Min(200e3, 0.2*f.RecycleRadiusM)
	entry := geo.Offset(f.Target, geo.WrapAngle(l.Heading()+math.Pi), entryDist)
	b := f.launch(0)
	b.Pos = entry
	b.Pos.Alt = (l.AltMinM + l.AltMaxM) / 2
	b.TargetAltM = b.Pos.Alt
	return b
}

// decideAltitude picks the balloon's commanded altitude: chase the
// target when outside the station radius, otherwise ride the slowest
// layer to loiter.
func (f *FMS) decideAltitude(b *Balloon) {
	dist := geo.GreatCircle(b.Pos, f.Target)
	if dist > f.StationRadiusM {
		bearing := geo.InitialBearing(b.Pos, f.Target)
		li, _ := f.wind.BestLayerToward(bearing)
		b.TargetAltM = f.wind.LayerCenterAlt(li)
		return
	}
	// Loiter: choose the layer with the lowest wind speed.
	best, bi := math.Inf(1), 0
	for i := range f.wind.NumLayers() {
		if s := f.wind.Layer(i).Speed(); s < best {
			best, bi = s, i
		}
	}
	b.TargetAltM = f.wind.LayerCenterAlt(bi)
}

// PredictedPoint is one sample of a predicted trajectory.
type PredictedPoint struct {
	// LeadS is seconds into the future.
	LeadS float64
	// Pos is the predicted position.
	Pos geo.LLA
}

// PredictTrajectory forecasts a balloon's future positions by
// integrating the *current* wind field forward (frozen-field
// assumption) with the FMS's altitude policy. Real winds evolve, so
// the prediction error grows with lead time — exactly the trajectory
// error the paper lists among its model-error sources. The TS-SDN
// should treat long-lead predictions with decreasing confidence.
func (f *FMS) PredictTrajectory(b *Balloon, horizonS, stepS float64) []PredictedPoint {
	ghost := *b // copy; never mutate the real balloon
	var out []PredictedPoint
	for lead := stepS; lead <= horizonS; lead += stepS {
		// Altitude policy, then frozen-field drift.
		f.decideAltitude(&ghost)
		ghost.Step(f.wind, stepS)
		out = append(out, PredictedPoint{LeadS: lead, Pos: ghost.Pos})
	}
	return out
}

// PredictPosition is PredictTrajectory's last point without the
// trajectory: the ghost's position after every step that fits in the
// horizon, or b's own position when none does.
func (f *FMS) PredictPosition(b *Balloon, horizonS, stepS float64) geo.LLA {
	ghost := *b
	for lead := stepS; lead <= horizonS; lead += stepS {
		f.decideAltitude(&ghost)
		ghost.Step(f.wind, stepS)
	}
	return ghost.Pos
}
