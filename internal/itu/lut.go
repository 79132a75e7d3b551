package itu

import (
	"math"
	"sync"
)

// AttenLUT memoizes the frequency-dependent parts of the P.676/P.838/
// P.840 specific-attenuation models so path integration stops
// recomputing identical spectroscopy per sample. The Link Evaluator
// integrates attenuation along ~17 samples per candidate path per
// epoch; every sample used to re-derive the full Annex 2 closed forms
// (several Pow/Exp calls) for inputs that depend only on (frequency,
// altitude, rain rate).
//
// Tables and their error bounds (see DESIGN.md §7):
//
//   - Gaseous (P.676) and cloud-coefficient (P.840) specific
//     attenuation are tabulated against the standard-atmosphere
//     altitude profile at lutAltStepM knots and linearly
//     interpolated. Both curves are smooth with scale heights ≥ 2 km,
//     so the interpolation error is ≤ max|f”|·Δ²/8 ≈ (Δ/H)²/8
//     ≈ 8·10⁻⁵ relative at Δ=50 m — under 10⁻³ dB on any path this
//     system evaluates. Altitudes above the table top fall back to
//     the exact closed forms.
//   - Rain (P.838) memoizes the k/α regression coefficients — the
//     log-interpolated table walk — and keeps the final k·R^α power
//     exact, so rain attenuation is bit-identical to RainSpecific.
//
// A LUT is immutable after construction and safe for concurrent use.
type AttenLUT struct {
	FGHz float64
	Rho0 float64 // sea-level water-vapour density the profile assumes
	Pol  Polarization

	gaseous []float64 // knot i: GaseousSpecific at alt i·lutAltStepM
	cloudK  []float64 // knot i: CloudSpecificCoefficient at that alt's temp
	rainK   float64
	rainA   float64
}

const (
	// lutAltStepM is the altitude quantization of the gaseous/cloud
	// tables.
	lutAltStepM = 50.0
	// lutMaxAltM is the table top; above it the exact closed forms
	// are used (specific attenuation is negligible up there anyway).
	lutMaxAltM = 30000.0
)

// NewAttenLUT builds the memoized tables for one frequency, sea-level
// vapour density, and polarization.
func NewAttenLUT(fGHz, rho0 float64, pol Polarization) *AttenLUT {
	n := int(lutMaxAltM/lutAltStepM) + 1
	l := &AttenLUT{
		FGHz: fGHz, Rho0: rho0, Pol: pol,
		gaseous: make([]float64, n),
		cloudK:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		alt := float64(i) * lutAltStepM
		pr, tk, rho := AtmosphereAt(alt, rho0)
		l.gaseous[i] = GaseousSpecific(fGHz, pr, tk, rho)
		l.cloudK[i] = CloudSpecificCoefficient(fGHz, tk)
	}
	l.rainK, l.rainA = RainCoefficients(fGHz, pol)
	return l
}

// interp linearly interpolates a table indexed by altitude, falling
// back to the exact evaluator beyond the table.
func (l *AttenLUT) interp(tab []float64, altM float64, exact func() float64) float64 {
	if altM <= 0 {
		return tab[0]
	}
	g := altM / lutAltStepM
	i := int(g)
	if i >= len(tab)-1 {
		return exact()
	}
	fr := g - float64(i)
	return tab[i] + fr*(tab[i+1]-tab[i])
}

// GaseousAt returns the P.676 gaseous specific attenuation (dB/km) at
// an altitude on the standard-atmosphere profile.
func (l *AttenLUT) GaseousAt(altM float64) float64 {
	return l.interp(l.gaseous, altM, func() float64 {
		pr, tk, rho := AtmosphereAt(altM, l.Rho0)
		return GaseousSpecific(l.FGHz, pr, tk, rho)
	})
}

// CloudSpecificAt returns the P.840 cloud specific attenuation
// (dB/km) for liquid water content lwc (g/m³) at an altitude on the
// standard-atmosphere temperature profile.
func (l *AttenLUT) CloudSpecificAt(altM, lwc float64) float64 {
	if lwc <= 0 {
		return 0
	}
	k := l.interp(l.cloudK, altM, func() float64 {
		_, tk, _ := AtmosphereAt(altM, l.Rho0)
		return CloudSpecificCoefficient(l.FGHz, tk)
	})
	return k * lwc
}

// RainSpecificAt returns the P.838 rain specific attenuation (dB/km)
// for the given rain rate, bit-identical to RainSpecific at the LUT's
// frequency and polarization (only the coefficient walk is memoized).
func (l *AttenLUT) RainSpecificAt(rainRate float64) float64 {
	if rainRate <= 0 {
		return 0
	}
	return l.rainK * math.Pow(rainRate, l.rainA)
}

// --- Package-level LUT cache ----------------------------------------

type lutKey struct {
	fGHz, rho0 float64
	pol        Polarization
}

var (
	lutMu    sync.Mutex
	lutCache = map[lutKey]*AttenLUT{}
)

// LUTFor returns the shared memoized table set for a frequency,
// building it on first use. The handful of distinct channel
// frequencies in the system keeps the cache tiny.
func LUTFor(fGHz, rho0 float64, pol Polarization) *AttenLUT {
	k := lutKey{fGHz, rho0, pol}
	lutMu.Lock()
	defer lutMu.Unlock()
	if l, ok := lutCache[k]; ok {
		return l
	}
	l := NewAttenLUT(fGHz, rho0, pol)
	lutCache[k] = l
	return l
}
