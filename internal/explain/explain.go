// Package explain implements the explainability tooling of §6:
// Loon's production network was "exceptionally difficult" to debug,
// and the paper's remedies are reproduced here —
//
//  1. a comprehensive, filterable change-log of typed events ("take
//     care to log comprehensively to enable tracing of path dependent
//     effects"),
//  2. a time scrubber that folds that change-log up to a solve cycle
//     ("a scrubber enabling us to roll time backwards and forward"),
//  3. "why not" queries that answer why the solver did not pick a
//     particular link ("it empowers network operations to answer
//     'why not' questions"),
//  4. per-solution value metrics surfaced with each plan, and
//  5. the obstruction-skew detector behind Fig. 13: correlating link
//     telemetry with pointing vectors to find stale obstruction
//     masks.
package explain

import (
	"fmt"

	"minkowski/internal/geo"
	"minkowski/internal/linkeval"
	"minkowski/internal/platform"
	"minkowski/internal/solver"
)

// --- Why-not queries ---------------------------------------------------

// WhyNot answers "why didn't the solver pick a link between these two
// transceivers?" against a plan and the evaluator that produced its
// candidates.
func WhyNot(e *linkeval.Evaluator, plan *solver.Plan, xa, xb *platform.Transceiver) string {
	// Chosen already?
	for _, c := range plan.Links {
		if (c.Report.XA == xa && c.Report.XB == xb) || (c.Report.XA == xb && c.Report.XB == xa) {
			return "it WAS chosen"
		}
	}
	// Not a candidate at all?
	reason, rep := e.Reject(xa, xb, 0)
	if rep == nil {
		return "not a candidate: " + reason
	}
	// Candidate, but a transceiver is tasked elsewhere?
	for _, c := range plan.Links {
		for _, x := range []*platform.Transceiver{xa, xb} {
			if c.Report.XA == x || c.Report.XB == x {
				return fmt.Sprintf("%s is tasked with link %s (one pairing per transceiver)", x.ID, c.Report.ID)
			}
		}
	}
	if rep.Class == 1 { // rf.Marginal
		return "candidate but marginal (within the 5 dB deprioritization window); penalized during solving"
	}
	return "viable candidate with lower estimated utility than the chosen topology"
}

// --- Fig. 13: obstruction-skew detection --------------------------------

// PointingSample correlates one link-telemetry observation with its
// antenna pointing vector.
type PointingSample struct {
	Azimuth, Elevation float64 // radians
	// ErrorDB is measured minus modelled signal (negative = weaker
	// than the model expects).
	ErrorDB float64
}

// SkewSector is a pointing sector with a systematic negative skew —
// evidence of a stale obstruction mask (new construction, foliage).
type SkewSector struct {
	AzMinDeg, AzMaxDeg float64
	Samples            int
	MeanErrorDB        float64
}

// DetectObstructionSkew bins samples by azimuth and flags sectors
// whose mean error is below the threshold (dB) with at least
// minSamples — the automated version of Fig. 13's red-dot overlay.
func DetectObstructionSkew(samples []PointingSample, sectorDeg float64, thresholdDB float64, minSamples int) []SkewSector {
	if sectorDeg <= 0 {
		sectorDeg = 10
	}
	nBins := int(360/sectorDeg + 0.5)
	sums := make([]float64, nBins)
	counts := make([]int, nBins)
	for _, s := range samples {
		az := geo.ToDeg(geo.WrapAngle(s.Azimuth))
		b := int(az / sectorDeg)
		if b >= nBins {
			b = nBins - 1
		}
		sums[b] += s.ErrorDB
		counts[b]++
	}
	var out []SkewSector
	for b := 0; b < nBins; b++ {
		if counts[b] < minSamples {
			continue
		}
		mean := sums[b] / float64(counts[b])
		if mean <= thresholdDB {
			out = append(out, SkewSector{
				AzMinDeg: float64(b) * sectorDeg, AzMaxDeg: float64(b+1) * sectorDeg,
				Samples: counts[b], MeanErrorDB: mean,
			})
		}
	}
	return out
}
