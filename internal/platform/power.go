// Package platform models the network nodes: balloons with their
// power-constrained communications payloads, and ground stations with
// wired power and backhaul (§2.2).
package platform

import "math"

// Power constants for the communications payload. The shapes matter
// more than the absolute values: solar generation peaks mid-day, the
// battery stores only a few hours of comms load above the safety
// reserve, so the network serves "from shortly after dawn through the
// first few hours of darkness each day (approximately 14 hours)" and
// must re-bootstrap every morning.
const (
	// SolarPeakW is the array output at local noon.
	SolarPeakW = 1200
	// CommsLoadW is the combined LTE + backhaul payload draw.
	CommsLoadW = 300
	// AvionicsLoadW is the always-on safety-critical draw (flight
	// control, satcom) served from the reserve.
	AvionicsLoadW = 40
	// BatteryCapacityWh is total storage.
	BatteryCapacityWh = 2200
	// ReserveWh is kept for safety-critical systems; comms shed load
	// when the battery falls to the reserve.
	ReserveWh = 1100
	// CommsOnSolarW is the solar output threshold at which a morning
	// bootstrap is allowed (shortly after dawn).
	CommsOnSolarW = 150
	// DayLengthS is the diurnal period.
	DayLengthS = 86400
	// SunriseS and SunsetS are the local solar window within each
	// day (06:00–18:00, equatorial).
	SunriseS = 6 * 3600
	SunsetS  = 18 * 3600
)

// SolarOutputW returns the solar array output at a sim time (seconds
// since midnight of day zero): a half-sine between sunrise and
// sunset.
func SolarOutputW(t float64) float64 {
	tod := math.Mod(t, DayLengthS)
	if tod < 0 {
		tod += DayLengthS
	}
	if tod < SunriseS || tod > SunsetS {
		return 0
	}
	frac := (tod - SunriseS) / (SunsetS - SunriseS)
	return SolarPeakW * math.Sin(frac*math.Pi)
}

// Power is a balloon's energy state.
type Power struct {
	// BatteryWh is the current charge.
	BatteryWh float64
	// CommsOn reports whether the communications payload is powered.
	CommsOn bool
}

// NewPower returns a power system starting at night with a
// partially charged battery and comms off.
func NewPower() *Power {
	return &Power{BatteryWh: BatteryCapacityWh * 0.8}
}

// Step advances the power system by dt seconds at sim time t.
// It applies solar charge, payload loads, and the comms on/off
// policy:
//
//   - comms switch ON when solar output climbs past the bootstrap
//     threshold (shortly after dawn),
//   - comms stay on into the night until the battery falls to the
//     reserve, then shed (first few hours of darkness),
//   - avionics always draw from the battery (and may dip into
//     reserve; the balloon never turns avionics off).
func (p *Power) Step(t, dt float64) {
	solar := SolarOutputW(t)
	load := AvionicsLoadW
	if p.CommsOn {
		load += CommsLoadW
	}
	net := (solar - float64(load)) * dt / 3600 // Wh
	p.BatteryWh += net
	if p.BatteryWh > BatteryCapacityWh {
		p.BatteryWh = BatteryCapacityWh
	}
	if p.BatteryWh < 0 {
		p.BatteryWh = 0
	}
	// Policy transitions.
	if !p.CommsOn && solar >= CommsOnSolarW && p.BatteryWh > ReserveWh*0.5 {
		p.CommsOn = true
	} else if p.CommsOn && solar < CommsOnSolarW && p.BatteryWh <= ReserveWh {
		p.CommsOn = false
	}
}
