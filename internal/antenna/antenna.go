// Package antenna models the mechanically pointable, high-gain
// directional antennas Loon mounted on gimbals at the three corners of
// the balloon bus and inside radomes at ground stations (§2.2 Radio
// Links).
//
// The model covers the properties the TS-SDN has to plan around:
//
//   - a field of regard (360° azimuth; elevation from nadir to +20°
//     above horizontal for balloons),
//   - per-mount occlusion masks (bus hardware, terrain, buildings,
//     foliage) that differ between antennas on the same platform,
//   - the boresight gain and the first side lobe's level (the paper's
//     Fig. 10 shows a bump near −14 dB attributed to locking onto side
//     lobes),
//   - slew and acquisition timing (the paper: "this process could
//     take dozens of seconds").
package antenna

import (
	"fmt"
	"math"

	"minkowski/internal/geo"
)

// FieldOfRegard is the mechanically reachable pointing envelope of a
// gimbal. Azimuth is always the full circle for Loon hardware; the
// elevation range differs between balloon mounts (nadir to +20°) and
// ground mounts.
type FieldOfRegard struct {
	// ElMin and ElMax bound the reachable elevation (radians).
	ElMin, ElMax float64
}

// BalloonFieldOfRegard is the envelope of a balloon gimbal: nadir
// (straight down) to 20° above horizontal.
func BalloonFieldOfRegard() FieldOfRegard {
	return FieldOfRegard{ElMin: -math.Pi / 2, ElMax: geo.Deg(20)}
}

// GroundFieldOfRegard is the envelope of a ground-station radome
// mount: the horizon up to zenith.
func GroundFieldOfRegard() FieldOfRegard {
	return FieldOfRegard{ElMin: 0, ElMax: math.Pi / 2}
}

// Contains reports whether a pointing elevation is mechanically
// reachable.
func (f FieldOfRegard) Contains(p geo.Pointing) bool {
	return p.Elevation >= f.ElMin && p.Elevation <= f.ElMax
}

// Occlusion is an azimuth/elevation sector blocked by structure,
// terrain, or other hardware on the bus. A pointing inside the sector
// (azimuth within [AzMin, AzMax], elevation at or below ElMax) is
// blocked. Sectors may wrap through north: if AzMin > AzMax the
// sector spans [AzMin, 2π) ∪ [0, AzMax].
type Occlusion struct {
	AzMin, AzMax float64
	// ElMax is the top of the obstruction: pointings above it clear
	// the obstruction.
	ElMax float64
	// Label names the obstruction for the explainability tooling
	// ("bus", "ridge-east", "new-warehouse", ...).
	Label string
	// Unmodeled marks obstructions that exist in the physical world
	// but are missing from the TS-SDN's obstruction mask (§5: "these
	// obstruction masks required updating as new buildings rose up").
	// The radio fabric honors them; the Link Evaluator does not —
	// the resulting surprise failures are exactly the paper's
	// brittle-B2G phenomenology and the Fig. 13 detection target.
	Unmodeled bool
}

// Blocks reports whether the occlusion blocks the given pointing.
func (o Occlusion) Blocks(p geo.Pointing) bool {
	az := geo.WrapAngle(p.Azimuth)
	inAz := false
	if o.AzMin <= o.AzMax {
		inAz = az >= o.AzMin && az <= o.AzMax
	} else {
		inAz = az >= o.AzMin || az <= o.AzMax
	}
	return inAz && p.Elevation <= o.ElMax
}

// GainPattern is the two levels of a directional antenna pattern the
// link model reads: the boresight gain, and the first side lobe a
// mispointed tracker can lock on to.
type GainPattern struct {
	// PeakDBi is the boresight gain.
	PeakDBi float64
	// FirstSideLobeDB is the level of the first side lobe relative to
	// the peak (a negative number, typically −14 dB for a uniformly
	// illuminated aperture — matching the paper's Fig. 10 bump).
	FirstSideLobeDB float64
}

// EBandPattern returns the pattern of the Loon E band transceiver
// antennas: ~45 dBi peak gain (a ~30 cm dish at 73 GHz), first side
// lobe 14 dB down.
func EBandPattern() GainPattern {
	return GainPattern{PeakDBi: 45, FirstSideLobeDB: -14}
}

// GroundEBandPattern returns the higher-performance ground-station
// antenna pattern (§2.2: ground transceivers "were provisioned with
// higher performance radio systems").
func GroundEBandPattern() GainPattern {
	return GainPattern{PeakDBi: 50, FirstSideLobeDB: -14}
}

// Gimbal tracks the mechanical state of one pointable antenna.
type Gimbal struct {
	// SlewRate is the peak angular rate in rad/s.
	SlewRate float64
	// Az and El are the current pointing angles.
	Az, El float64
}

// SlewTime returns the time in seconds to slew from the current
// pointing to the target, moving azimuth and elevation axes
// concurrently.
func (g *Gimbal) SlewTime(target geo.Pointing) float64 {
	if g.SlewRate <= 0 {
		return 0
	}
	dAz := geo.AngleDiff(g.Az, target.Azimuth)
	dEl := math.Abs(g.El - target.Elevation)
	return math.Max(dAz, dEl) / g.SlewRate
}

// PointAt snaps the gimbal to the target pointing (used after a slew
// completes).
func (g *Gimbal) PointAt(target geo.Pointing) {
	g.Az = geo.WrapAngle(target.Azimuth)
	g.El = target.Elevation
}

// Mount is a complete antenna installation: envelope, obstructions,
// pattern, and gimbal dynamics. Each balloon carries three; each
// ground station two.
type Mount struct {
	// Name identifies the mount on its platform ("xcvr-0" ...).
	Name string
	// FOR is the mechanical envelope.
	FOR FieldOfRegard
	// Occlusions lists blocked sectors for this specific mount. The
	// paper: "each antenna experienced different occlusions within
	// their field of regard".
	Occlusions []Occlusion
	// Pattern is the antenna gain pattern.
	Pattern GainPattern
	// Gimbal is the pointing mechanism state.
	Gimbal Gimbal
}

// CanPoint reports whether the mount can aim at the target pointing:
// inside the mechanical envelope and not blocked by any occlusion —
// including unmodeled ones. This is the physical truth. When blocked,
// the blocking occlusion's label is returned.
func (m *Mount) CanPoint(p geo.Pointing) (ok bool, blockedBy string) {
	return m.canPoint(p, true)
}

// CanPointModel is the TS-SDN's *belief*: the mechanical envelope and
// only the occlusions in the (possibly stale) obstruction mask. The
// Link Evaluator plans with this; the gap to CanPoint is the model
// error of §5.
func (m *Mount) CanPointModel(p geo.Pointing) (ok bool, blockedBy string) {
	return m.canPoint(p, false)
}

func (m *Mount) canPoint(p geo.Pointing, includeUnmodeled bool) (bool, string) {
	if !m.FOR.Contains(p) {
		return false, "field-of-regard"
	}
	for _, o := range m.Occlusions {
		if o.Unmodeled && !includeUnmodeled {
			continue
		}
		if o.Blocks(p) {
			return false, o.Label
		}
	}
	return true, ""
}

// BalloonMountsN builds a balloon installation with n corner mounts:
// three is the standard one; others serve the Appendix A / §3.2
// transceiver-count study ("simulations of 4 or more E band
// transceivers per node showed diminishing returns"). Each mount is
// occluded by the bus structure in a 60°-wide sector opposite its
// corner (pointing "through" the balloon bus), whatever n is.
func BalloonMountsN(n int) []*Mount {
	if n < 1 {
		n = 1
	}
	mounts := make([]*Mount, n)
	for i := 0; i < n; i++ {
		center := geo.WrapAngle(geo.Deg(float64(i)*360/float64(n) + 180))
		mounts[i] = &Mount{
			Name: fmt.Sprintf("xcvr-%d", i),
			FOR:  BalloonFieldOfRegard(),
			Occlusions: []Occlusion{{
				AzMin: geo.WrapAngle(center - geo.Deg(30)),
				AzMax: geo.WrapAngle(center + geo.Deg(30)),
				ElMax: geo.Deg(20), // the bus blocks the whole usable elevation range
				Label: "bus",
			}},
			Pattern: EBandPattern(),
			Gimbal:  Gimbal{SlewRate: geo.Deg(5)},
		}
	}
	return mounts
}

// GroundMounts builds a two-transceiver ground-station installation
// with the given terrain occlusions applied to both mounts.
func GroundMounts(terrain []Occlusion) []*Mount {
	mounts := make([]*Mount, 2)
	for i := 0; i < 2; i++ {
		occ := make([]Occlusion, len(terrain))
		copy(occ, terrain)
		mounts[i] = &Mount{
			Name:       fmt.Sprintf("xcvr-%d", i),
			FOR:        GroundFieldOfRegard(),
			Occlusions: occ,
			Pattern:    GroundEBandPattern(),
			Gimbal:     Gimbal{SlewRate: geo.Deg(10)},
		}
	}
	return mounts
}
