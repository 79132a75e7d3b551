// Package geo provides the geodetic and 3-D geometric primitives the
// TS-SDN uses to reason about the physical world: WGS84 coordinates,
// Earth-centered Earth-fixed (ECEF) vectors, slant ranges, pointing
// angles (azimuth/elevation), and line-of-sight tests against the
// Earth's bulge.
//
// All distances are in meters, all angles in radians unless a name says
// otherwise. Latitude/longitude are geodetic (WGS84).
package geo

import (
	"fmt"
	"math"
)

// WGS84 ellipsoid constants.
const (
	// EarthSemiMajor is the WGS84 semi-major axis (equatorial radius).
	EarthSemiMajor = 6378137.0
	// EarthFlattening is the WGS84 flattening f = (a-b)/a.
	EarthFlattening = 1.0 / 298.257223563
	// EarthSemiMinor is the WGS84 semi-minor axis (polar radius).
	EarthSemiMinor = EarthSemiMajor * (1 - EarthFlattening)
	// EarthMeanRadius is the IUGG mean Earth radius, used for
	// great-circle approximations.
	EarthMeanRadius = 6371008.8
)

// eccSq and ecc2Sq are the first and second eccentricity squared of the
// WGS84 ellipsoid.
const (
	eccSq  = EarthFlattening * (2 - EarthFlattening)
	ecc2Sq = eccSq / (1 - eccSq)
)

// Deg converts degrees to radians.
func Deg(d float64) float64 { return d * math.Pi / 180 }

// ToDeg converts radians to degrees.
func ToDeg(r float64) float64 { return r * 180 / math.Pi }

// LLA is a geodetic position: latitude, longitude (radians) and
// altitude above the WGS84 ellipsoid (meters).
type LLA struct {
	Lat, Lon, Alt float64
}

// LLADeg constructs an LLA from degrees latitude/longitude and meters
// altitude.
func LLADeg(latDeg, lonDeg, alt float64) LLA {
	return LLA{Lat: Deg(latDeg), Lon: Deg(lonDeg), Alt: alt}
}

// String renders the position in degrees for human consumption.
func (p LLA) String() string {
	return fmt.Sprintf("(%.4f°, %.4f°, %.0fm)", ToDeg(p.Lat), ToDeg(p.Lon), p.Alt)
}

// Vec3 is a Cartesian vector in meters. The ECEF frame has +X through
// the prime meridian at the equator, +Z through the north pole.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v · w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Unit returns v normalized to length 1. The zero vector is returned
// unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// ToECEF converts a geodetic position to ECEF Cartesian coordinates.
//
//minkowski:hotpath
func (p LLA) ToECEF() Vec3 {
	sinLat, cosLat := math.Sincos(p.Lat)
	sinLon, cosLon := math.Sincos(p.Lon)
	// Prime vertical radius of curvature.
	n := EarthSemiMajor / math.Sqrt(1-eccSq*sinLat*sinLat)
	return Vec3{
		X: (n + p.Alt) * cosLat * cosLon,
		Y: (n + p.Alt) * cosLat * sinLon,
		Z: (n*(1-eccSq) + p.Alt) * sinLat,
	}
}

// bowring inverts ToECEF with one step of Bowring's closed form from the
// parametric-latitude starting guess, on square roots alone: it returns
// the sine and cosine of the geodetic latitude and the altitude. One
// step is exact to rounding from below the surface to far beyond any
// altitude flown here (DESIGN.md §13 has the measured errors), and the
// altitude form p·cosφ + z·sinφ − a·√(1−e²sin²φ) needs no polar branch.
func (v Vec3) bowring() (sinLat, cosLat, alt float64) {
	p := math.Sqrt(v.X*v.X + v.Y*v.Y)
	// Parametric latitude β of the guess: tan β = a·z / (b·p).
	sb, cb := EarthSemiMajor*v.Z, EarthSemiMinor*p
	r := math.Sqrt(sb*sb + cb*cb)
	sb, cb = sb/r, cb/r
	// tan φ = (z + e'²·b·sin³β) / (p − e²·a·cos³β).
	num := v.Z + ecc2Sq*EarthSemiMinor*sb*sb*sb
	den := p - eccSq*EarthSemiMajor*cb*cb*cb
	r = math.Sqrt(num*num + den*den)
	sinLat, cosLat = num/r, den/r
	alt = p*cosLat + v.Z*sinLat - EarthSemiMajor*math.Sqrt(1-eccSq*sinLat*sinLat)
	return sinLat, cosLat, alt
}

// Altitude returns the height of an ECEF point above the WGS84
// ellipsoid without any trigonometry: all a path sample above the
// weather needs.
//
//minkowski:hotpath
func (v Vec3) Altitude() float64 {
	_, _, alt := v.bowring()
	return alt
}

// ToLLA converts an ECEF vector back to geodetic coordinates. Its
// altitude is Altitude's, bit for bit.
func (v Vec3) ToLLA() LLA {
	sinLat, cosLat, alt := v.bowring()
	return LLA{Lat: math.Atan2(sinLat, cosLat), Lon: math.Atan2(v.Y, v.X), Alt: alt}
}

// SlantRange returns the straight-line (line-of-sight) distance in
// meters between two geodetic positions.
//
//minkowski:hotpath
func SlantRange(a, b LLA) float64 {
	return b.ToECEF().Sub(a.ToECEF()).Norm()
}

// GreatCircle returns the great-circle surface distance in meters
// between two positions (altitudes ignored), using the haversine
// formula on the mean Earth radius.
func GreatCircle(a, b LLA) float64 {
	dLat := b.Lat - a.Lat
	dLon := b.Lon - a.Lon
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(a.Lat)*math.Cos(b.Lat)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthMeanRadius * math.Asin(math.Min(1, math.Sqrt(s)))
}

// InitialBearing returns the initial great-circle bearing from a to b
// in radians, in [0, 2π), measured clockwise from true north.
func InitialBearing(a, b LLA) float64 {
	dLon := b.Lon - a.Lon
	y := math.Sin(dLon) * math.Cos(b.Lat)
	x := math.Cos(a.Lat)*math.Sin(b.Lat) - math.Sin(a.Lat)*math.Cos(b.Lat)*math.Cos(dLon)
	br := math.Atan2(y, x)
	if br < 0 {
		br += 2 * math.Pi
	}
	return br
}

// Offset returns the position reached by traveling dist meters from p
// along the given initial bearing (radians from north), holding
// altitude. It uses the spherical direct geodesic problem, which is
// accurate to ~0.5% — ample for simulated balloon drift.
func Offset(p LLA, bearing, dist float64) LLA {
	ad := dist / EarthMeanRadius
	sinLat, cosLat := math.Sincos(p.Lat)
	sinAd, cosAd := math.Sincos(ad)
	sinBr, cosBr := math.Sincos(bearing)
	lat2 := math.Asin(sinLat*cosAd + cosLat*sinAd*cosBr)
	lon2 := p.Lon + math.Atan2(sinBr*sinAd*cosLat, cosAd-sinLat*math.Sin(lat2))
	// Normalize longitude to (-π, π].
	for lon2 > math.Pi {
		lon2 -= 2 * math.Pi
	}
	for lon2 <= -math.Pi {
		lon2 += 2 * math.Pi
	}
	return LLA{Lat: lat2, Lon: lon2, Alt: p.Alt}
}

// ENU is a local East-North-Up frame anchored at a reference position.
// The TS-SDN computes antenna pointing angles in the platform's local
// ENU frame.
type ENU struct {
	origin Vec3
	east   Vec3
	north  Vec3
	up     Vec3
}

// NewENU constructs a local tangent frame at the given position. It
// is a value: PointingTo builds one per solution and it never reaches
// the heap.
func NewENU(ref LLA) ENU {
	sinLat, cosLat := math.Sincos(ref.Lat)
	sinLon, cosLon := math.Sincos(ref.Lon)
	return ENU{
		origin: ref.ToECEF(),
		east:   Vec3{-sinLon, cosLon, 0},
		north:  Vec3{-sinLat * cosLon, -sinLat * sinLon, cosLat},
		up:     Vec3{cosLat * cosLon, cosLat * sinLon, sinLat},
	}
}

// To transforms an ECEF point into local ENU coordinates.
func (f *ENU) To(p Vec3) Vec3 {
	d := p.Sub(f.origin)
	return Vec3{d.Dot(f.east), d.Dot(f.north), d.Dot(f.up)}
}

// From transforms a local ENU point back into ECEF.
func (f *ENU) From(l Vec3) Vec3 {
	return f.origin.
		Add(f.east.Scale(l.X)).
		Add(f.north.Scale(l.Y)).
		Add(f.up.Scale(l.Z))
}

// Pointing is an antenna pointing direction expressed as azimuth
// (radians clockwise from north, in [0, 2π)) and elevation (radians
// above the local horizontal, in [-π/2, π/2]).
type Pointing struct {
	Azimuth   float64
	Elevation float64
	Range     float64 // slant range to the target, meters
}

// String renders the pointing in degrees.
func (pt Pointing) String() string {
	return fmt.Sprintf("az=%.1f° el=%.1f° r=%.1fkm",
		ToDeg(pt.Azimuth), ToDeg(pt.Elevation), pt.Range/1000)
}

// PointingTo computes the azimuth/elevation required to aim from
// position `from` at position `to`, in from's local ENU frame.
//
//minkowski:hotpath
func PointingTo(from, to LLA) Pointing {
	f := NewENU(from)
	l := f.To(to.ToECEF())
	r := l.Norm()
	az := math.Atan2(l.X, l.Y) // atan2(east, north): clockwise from north
	if az < 0 {
		az += 2 * math.Pi
	}
	el := 0.0
	if r > 0 {
		el = math.Asin(l.Z / r)
	}
	return Pointing{Azimuth: az, Elevation: el, Range: r}
}

// LineOfSight reports whether the straight segment between two
// positions clears the Earth (with the given clearance margin in
// meters added to the Earth radius, modelling terrain and atmospheric
// grazing losses). A clearance of 0 tests against the bare ellipsoid
// approximated as a sphere of the mean radius.
//
//minkowski:hotpath
func LineOfSight(a, b LLA, clearance float64) bool {
	return GrazingAltitude(a, b) >= clearance
}

// GrazingAltitude returns the minimum height above the (spherical)
// Earth surface reached by the straight segment between a and b, in
// meters. Negative values mean the segment intersects the Earth. For
// segments whose closest approach to the Earth's center lies outside
// the segment, the lower endpoint altitude is returned.
func GrazingAltitude(a, b LLA) float64 {
	pa := a.ToECEF()
	pb := b.ToECEF()
	d := pb.Sub(pa)
	dd := d.Dot(d)
	if dd == 0 {
		return pa.Norm() - EarthMeanRadius
	}
	// Parameter of closest approach of the infinite line to the origin.
	t := -pa.Dot(d) / dd
	if t <= 0 {
		return pa.Norm() - EarthMeanRadius
	}
	if t >= 1 {
		return pb.Norm() - EarthMeanRadius
	}
	closest := pa.Add(d.Scale(t))
	return closest.Norm() - EarthMeanRadius
}

// Segment is the straight ECEF chord between two positions. The
// weather substrate integrates attenuation along points of it.
type Segment struct {
	from, dir Vec3 // start point, and end − start
}

// NewSegment returns the chord from a to b.
func NewSegment(a, b LLA) Segment {
	pa := a.ToECEF()
	return Segment{from: pa, dir: b.ToECEF().Sub(pa)}
}

// Length returns the chord length in meters: SlantRange(a, b), bit for
// bit.
func (s Segment) Length() float64 { return s.dir.Norm() }

// Point returns the point a fraction t of the way along the chord
// (0 is a, 1 is b).
//
//minkowski:hotpath
func (s Segment) Point(t float64) Vec3 { return s.from.Add(s.dir.Scale(t)) }

// WrapAngle normalizes an angle to [0, 2π).
func WrapAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// AngleDiff returns the smallest absolute difference between two
// angles, in [0, π].
func AngleDiff(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d < 0 {
		d += 2 * math.Pi
	}
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}
