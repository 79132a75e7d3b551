// Package itu implements the ITU-R propagation models the paper's Link
// Evaluator relied on (§3.1, refs [27–29]):
//
//   - ITU-R P.676: attenuation by atmospheric gases (oxygen and water
//     vapour), via the closed-form Annex 2 approximations.
//   - ITU-R P.838: specific attenuation due to rain, γ_R = k·R^α with
//     frequency-dependent coefficients.
//   - ITU-R P.840: attenuation due to clouds and fog, using the
//     double-Debye dielectric model for liquid water.
//
// The package also provides the "regional-seasonal" statistical
// backstop the paper describes: when no fresher weather data is
// available, the solver falls back to climatological rain-rate
// estimates.
//
// Frequencies are in GHz, attenuation in dB (or dB/km for specific
// attenuation), rain rates in mm/h, temperatures in kelvin, pressure in
// hPa, and water content in g/m³ throughout.
package itu

import (
	"math"
	"sort"
)

// Polarization selects the rain-coefficient set in P.838. E band links
// in this system are modelled as horizontally polarized; circular
// polarization averages the two.
type Polarization int

const (
	// Horizontal polarization.
	Horizontal Polarization = iota
	// Vertical polarization.
	Vertical
	// Circular polarization (average of H and V coefficients).
	Circular
)

// --- ITU-R P.676: gaseous attenuation ------------------------------

// Standard reference atmosphere at sea level used by the Annex 2
// closed forms.
const (
	refPressureHPa = 1013.25
	refTempK       = 288.15
)

// GaseousSpecific returns the specific attenuation (dB/km) due to dry
// air (oxygen) plus water vapour at frequency fGHz, for the given
// pressure (hPa), temperature (K) and water-vapour density rho (g/m³).
// It implements the ITU-R P.676 Annex 2 approximation, valid from 1 to
// 350 GHz away from the 60 GHz oxygen complex (E band at 71–86 GHz is
// squarely in the valid region).
func GaseousSpecific(fGHz, pressureHPa, tempK, rho float64) float64 {
	return OxygenSpecific(fGHz, pressureHPa, tempK) + WaterVapourSpecific(fGHz, pressureHPa, tempK, rho)
}

// OxygenSpecific returns the dry-air specific attenuation in dB/km.
func OxygenSpecific(fGHz, pressureHPa, tempK float64) float64 {
	if fGHz <= 0 {
		return 0
	}
	rp := pressureHPa / refPressureHPa
	rt := refTempK / tempK
	f := fGHz
	var g float64
	switch {
	case f < 57:
		g = (7.27*rt/(f*f+0.351*rp*rp*rt*rt) +
			7.5/((f-57)*(f-57)+2.44*rp*rp*math.Pow(rt, 5))) *
			f * f * rp * rp * rt * rt * 1e-3
	case f <= 63:
		// Inside the 60 GHz oxygen complex: the Annex 2 closed form is
		// not valid; interpolate linearly between the 57 and 63 GHz
		// branch values. No link in this system operates here.
		g57 := OxygenSpecific(56.99, pressureHPa, tempK)
		g63 := OxygenSpecific(63.01, pressureHPa, tempK)
		g = g57 + (g63-g57)*(f-57)/6
	default: // 63 < f <= 350
		g = (2e-4*math.Pow(rt, 1.5)*(1-1.2e-5*math.Pow(f, 1.5)) +
			4/((f-63)*(f-63)+1.5*rp*rp*math.Pow(rt, 5)) +
			0.28*rt*rt/((f-118.75)*(f-118.75)+2.84*rp*rp*rt*rt)) *
			f * f * rp * rp * math.Pow(rt, 2) * 1e-3
	}
	if g < 0 {
		g = 0
	}
	return g
}

// WaterVapourSpecific returns the water-vapour specific attenuation in
// dB/km for vapour density rho (g/m³).
func WaterVapourSpecific(fGHz, pressureHPa, tempK, rho float64) float64 {
	if fGHz <= 0 || rho <= 0 {
		return 0
	}
	rp := pressureHPa / refPressureHPa
	rt := refTempK / tempK
	f := fGHz
	g := (3.27e-2*rt +
		1.67e-3*rho*rt*rt*rt*rt*rt*rt*rt/rp +
		7.7e-4*math.Pow(f, 0.5) +
		3.79/((f-22.235)*(f-22.235)+9.81*rp*rp*rt) +
		11.73*rt/((f-183.31)*(f-183.31)+11.85*rp*rp*rt) +
		4.01*rt/((f-325.153)*(f-325.153)+10.44*rp*rp*rt)) *
		f * f * rho * rp * rt * 1e-4
	if g < 0 {
		g = 0
	}
	return g
}

// vapourScaleHeightKm is the water-vapour equivalent height (P.676
// §2.2 style) of the standard atmosphere below.
const vapourScaleHeightKm = 2.0

// AtmosphereAt returns a standard-atmosphere (pressure hPa,
// temperature K, water-vapour density g/m³) triple at the given
// altitude in meters, for a sea-level vapour density rho0. The
// pressure uses the barometric formula with a 7 km scale height and
// the temperature the ISA lapse rate capped at the tropopause.
func AtmosphereAt(altM, rho0 float64) (pressureHPa, tempK, rho float64) {
	altKm := altM / 1000
	pressureHPa = refPressureHPa * math.Exp(-altKm/7.0)
	tempK = refTempK - 6.5*math.Min(altKm, 11)
	if altKm > 11 {
		// Isothermal lower stratosphere.
		tempK = refTempK - 6.5*11
	}
	rho = rho0 * math.Exp(-altKm/vapourScaleHeightKm)
	return pressureHPa, tempK, rho
}

// --- ITU-R P.838: rain attenuation ---------------------------------

// p838Row holds the regression coefficients k and α for one frequency.
type p838Row struct {
	f      float64
	kH, aH float64
	kV, aV float64
}

// p838Table is the ITU-R P.838-3 coefficient table (subset spanning
// 1–100 GHz, which covers every band in this system including E band).
var p838Table = []p838Row{
	{1, 0.0000259, 0.9691, 0.0000308, 0.8592},
	{2, 0.0000847, 1.0664, 0.0000998, 0.9490},
	{4, 0.0001071, 1.6009, 0.0002461, 1.2476},
	{6, 0.0007056, 1.5900, 0.0004878, 1.5728},
	{8, 0.004115, 1.3905, 0.003450, 1.3797},
	{10, 0.01217, 1.2571, 0.01129, 1.2156},
	{12, 0.02386, 1.1825, 0.02455, 1.1216},
	{15, 0.04481, 1.1233, 0.05008, 1.0440},
	{20, 0.09164, 1.0568, 0.09611, 0.9847},
	{25, 0.1571, 0.9991, 0.1533, 0.9491},
	{30, 0.2403, 0.9485, 0.2291, 0.9129},
	{35, 0.3374, 0.9047, 0.3224, 0.8761},
	{40, 0.4431, 0.8673, 0.4274, 0.8421},
	{45, 0.5521, 0.8355, 0.5375, 0.8123},
	{50, 0.6600, 0.8084, 0.6472, 0.7871},
	{60, 0.8606, 0.7656, 0.8515, 0.7486},
	{70, 1.0315, 0.7345, 1.0253, 0.7215},
	{80, 1.1704, 0.7115, 1.1668, 0.7021},
	{90, 1.2807, 0.6944, 1.2795, 0.6876},
	{100, 1.3671, 0.6815, 1.3680, 0.6765},
}

// RainCoefficients returns the P.838 k and α coefficients for the
// given frequency and polarization, interpolating log(k) and α against
// log(f) between table rows. Frequencies outside [1, 100] GHz are
// clamped to the nearest table edge.
func RainCoefficients(fGHz float64, pol Polarization) (k, alpha float64) {
	if fGHz <= p838Table[0].f {
		r := p838Table[0]
		return pickPol(r, pol)
	}
	last := p838Table[len(p838Table)-1]
	if fGHz >= last.f {
		return pickPol(last, pol)
	}
	i := sort.Search(len(p838Table), func(i int) bool { return p838Table[i].f >= fGHz })
	lo, hi := p838Table[i-1], p838Table[i]
	t := (math.Log(fGHz) - math.Log(lo.f)) / (math.Log(hi.f) - math.Log(lo.f))
	kLo, aLo := pickPol(lo, pol)
	kHi, aHi := pickPol(hi, pol)
	k = math.Exp(math.Log(kLo) + t*(math.Log(kHi)-math.Log(kLo)))
	alpha = aLo + t*(aHi-aLo)
	return k, alpha
}

func pickPol(r p838Row, pol Polarization) (k, alpha float64) {
	switch pol {
	case Vertical:
		return r.kV, r.aV
	case Circular:
		// P.838 circular combination with 45° tilt reduces to the
		// arithmetic mean of kH/kV and the k-weighted mean of α.
		k = (r.kH + r.kV) / 2
		alpha = (r.kH*r.aH + r.kV*r.aV) / (r.kH + r.kV)
		return k, alpha
	default:
		return r.kH, r.aH
	}
}

// RainSpecific returns the specific attenuation in dB/km for rain of
// the given rate (mm/h) at the given frequency and polarization,
// γ_R = k·R^α.
func RainSpecific(fGHz, rainRate float64, pol Polarization) float64 {
	if rainRate <= 0 {
		return 0
	}
	k, a := RainCoefficients(fGHz, pol)
	return k * math.Pow(rainRate, a)
}

// --- ITU-R P.840: cloud and fog attenuation ------------------------

// CloudSpecificCoefficient returns K_l, the cloud liquid water
// specific attenuation coefficient in (dB/km)/(g/m³) at frequency
// fGHz and temperature tempK, using the double-Debye dielectric model
// of ITU-R P.840.
func CloudSpecificCoefficient(fGHz, tempK float64) float64 {
	if fGHz <= 0 {
		return 0
	}
	theta := 300 / tempK
	e0 := 77.66 + 103.3*(theta-1)
	e1 := 0.0671 * e0
	e2 := 3.52
	fp := 20.20 - 146*(theta-1) + 316*(theta-1)*(theta-1) // GHz, principal relaxation
	fs := 39.8 * fp                                       // GHz, secondary relaxation
	f := fGHz
	eImag := f*(e0-e1)/(fp*(1+(f/fp)*(f/fp))) + f*(e1-e2)/(fs*(1+(f/fs)*(f/fs)))
	eReal := (e0-e1)/(1+(f/fp)*(f/fp)) + (e1-e2)/(1+(f/fs)*(f/fs)) + e2
	eta := (2 + eReal) / eImag
	return 0.819 * f / (eImag * (1 + eta*eta))
}

// CloudSpecific returns the specific attenuation in dB/km for a cloud
// or fog with liquid water content lwc (g/m³) at frequency fGHz and
// temperature tempK.
func CloudSpecific(fGHz, tempK, lwc float64) float64 {
	if lwc <= 0 {
		return 0
	}
	return CloudSpecificCoefficient(fGHz, tempK) * lwc
}

// --- Regional-seasonal backstop model -------------------------------

// Season indexes the wet/dry seasonality of the tropical service
// region. The paper's subtropical Kenya region has two rainy seasons
// (the "long rains" around March–May and "short rains" around
// October–December).
type Season int

const (
	// DrySeason has low climatological rain probability.
	DrySeason Season = iota
	// ShortRains is the October–December wet season.
	ShortRains
	// LongRains is the March–May wet season with the heaviest rain.
	LongRains
)

// RegionalModel is the climatological backstop of §3.1/§5: when no
// gauge or forecast data is available, it supplies pessimistic
// rain-rate estimates by season.
type RegionalModel struct {
	// MeanRainRate is the season's climatological mean rain rate over
	// raining periods, mm/h.
	MeanRainRate [3]float64
	// RainProbability is the fraction of time it rains at all.
	RainProbability [3]float64
}

// DefaultRegionalModel returns climatology tuned for the paper's
// equatorial East-African service region.
func DefaultRegionalModel() *RegionalModel {
	return &RegionalModel{
		MeanRainRate:    [3]float64{1.5, 5, 8},
		RainProbability: [3]float64{0.02, 0.08, 0.12},
	}
}

// DesignRainRate returns the rain rate (mm/h) the backstop model
// plans around for the given season: the climatological mean scaled
// toward the exceedance tail by the model's pessimism.
func (m *RegionalModel) DesignRainRate(s Season) float64 {
	mean := m.MeanRainRate[s]
	p := m.RainProbability[s]
	// Expected rate is mean·P(rain); pessimism pulls the estimate up
	// toward the conditional mean.
	return mean*p + mean*(1-p)*0.25
}
