package telemetry

import "minkowski/internal/geo"

// PositionGuard is the controller-side plausibility gate for
// self-reported node positions. A byzantine (or just broken) GPS can
// report anywhere on Earth; planning pointing geometry from a lie
// wastes both endpoints' radios for a full establish cycle. The guard
// holds each node's last accepted fix and rejects any report that
// would require the platform to out-run a stratospheric balloon:
// implausible reports quarantine the node, freezing the controller's
// estimate at the last good fix until plausible telemetry resumes.
type PositionGuard struct {
	// MaxSpeedMS is the fastest credible platform ground speed.
	// Balloons ride the wind: ~50 m/s jet-stream drift is extreme, so
	// the default leaves generous headroom.
	MaxSpeedMS float64
	// SlackM absorbs fix jitter and the report-vs-sample skew of a
	// heartbeat in flight, so short inter-report gaps don't reject
	// honest noise.
	SlackM float64
	// MaxEnvelopeM caps the plausibility radius regardless of how long
	// the reference fix has been stale. Without the cap a PATIENT
	// byzantine node wins by waiting: quarantine deliberately freezes
	// the reference timestamp, so the MaxSpeedMS·Δt envelope grows
	// until any fixed spoof offset becomes "plausible" and is adopted
	// wholesale (found by guided chaos search — a single ~23-minute
	// byzantine-telemetry window walks believed position 250 km off).
	// The cap must sit well above any honest displacement across a
	// report gap (winds move a balloon tens of km per hour) and well
	// below the spoof offsets worth guarding against. Zero disables
	// the cap.
	MaxEnvelopeM float64

	// Accepted / Rejected count gate decisions.
	Accepted, Rejected int

	last map[string]fix
}

type fix struct {
	pos geo.LLA
	at  float64
	// quarantined marks the node's reports currently implausible.
	quarantined bool
}

// NewPositionGuard returns a guard with the default envelope:
// 80 m/s credible speed, 2 km of slack, and a 120 km absolute cap.
func NewPositionGuard() *PositionGuard {
	return &PositionGuard{MaxSpeedMS: 80, SlackM: 2000, MaxEnvelopeM: 120_000, last: map[string]fix{}}
}

// Seed installs a trusted initial fix (the controller's own model at
// node registration), so a byzantine node cannot poison the reference
// with its very first report.
func (g *PositionGuard) Seed(node string, pos geo.LLA, at float64) {
	if g.last == nil {
		g.last = map[string]fix{}
	}
	g.last[node] = fix{pos: pos, at: at}
}

// Observe gates one self-reported position at time now. It returns
// true when the report is plausible (and adopts it as the node's new
// reference); false quarantines the node until a plausible report
// arrives.
func (g *PositionGuard) Observe(node string, pos geo.LLA, now float64) bool {
	if g.last == nil {
		g.last = map[string]fix{}
	}
	prev, ok := g.last[node]
	if !ok {
		// Unseeded node: adopt the first report (nothing to test
		// against). Callers that can Seed should.
		g.last[node] = fix{pos: pos, at: now}
		g.Accepted++
		return true
	}
	dt := now - prev.at
	if dt < 0 {
		dt = 0
	}
	limit := g.MaxSpeedMS*dt + g.SlackM
	if g.MaxEnvelopeM > 0 && limit > g.MaxEnvelopeM {
		limit = g.MaxEnvelopeM
	}
	if geo.SlantRange(prev.pos, pos) <= limit {
		g.last[node] = fix{pos: pos, at: now}
		g.Accepted++
		return true
	}
	// Implausible: keep the old reference (advancing its timestamp
	// would let a patient attacker walk the envelope outward) and mark
	// the node quarantined.
	prev.quarantined = true
	g.last[node] = prev
	g.Rejected++
	return false
}

// Quarantined reports whether the node's latest report was rejected
// and no plausible report has arrived since.
func (g *PositionGuard) Quarantined(node string) bool {
	return g.last[node].quarantined
}

// LastGood returns the node's last accepted fix, if any.
func (g *PositionGuard) LastGood(node string) (geo.LLA, float64, bool) {
	f, ok := g.last[node]
	if !ok {
		return geo.LLA{}, 0, false
	}
	return f.pos, f.at, true
}
