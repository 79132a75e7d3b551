// Package explain implements the explainability tooling of §6:
// Loon's production network was "exceptionally difficult" to debug,
// and the paper's remedies are reproduced here —
//
//  1. a comprehensive, filterable change-log of typed events ("take
//     care to log comprehensively to enable tracing of path dependent
//     effects"),
//  2. a time scrubber over recorded state snapshots ("a scrubber
//     enabling us to roll time backwards and forward"),
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
	"sort"
	"strings"

	"minkowski/internal/geo"
	"minkowski/internal/linkeval"
	"minkowski/internal/platform"
	"minkowski/internal/solver"
)

// EventKind classifies change-log entries.
type EventKind string

// Event kinds emitted by the controller.
const (
	EvSolve        EventKind = "solve"
	EvLinkIntent   EventKind = "link-intent"
	EvLinkState    EventKind = "link-state"
	EvRouteIntent  EventKind = "route-intent"
	EvCommand      EventKind = "command"
	EvNodeJoin     EventKind = "node-join"
	EvNodeLeave    EventKind = "node-leave"
	EvWeather      EventKind = "weather"
	EvAnomaly      EventKind = "anomaly"
	EvConnectivity EventKind = "connectivity"
)

// Event is one change-log entry.
type Event struct {
	At      float64
	Kind    EventKind
	Subject string // the entity the event is about (link ID, node, ...)
	Detail  string
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("[%10.1f] %-12s %-28s %s", e.At, e.Kind, e.Subject, e.Detail)
}

// Log is the append-only event log.
type Log struct {
	events []Event
	// Cap bounds memory for long runs (0 = unbounded); oldest entries
	// are dropped in blocks.
	Cap int
}

// Append records an event.
func (l *Log) Append(at float64, kind EventKind, subject, detail string) {
	l.events = append(l.events, Event{At: at, Kind: kind, Subject: subject, Detail: detail})
	if l.Cap > 0 && len(l.events) > l.Cap {
		drop := l.Cap / 4
		l.events = append(l.events[:0], l.events[drop:]...)
	}
}

// Appendf records a formatted event.
func (l *Log) Appendf(at float64, kind EventKind, subject, format string, args ...interface{}) {
	l.Append(at, kind, subject, fmt.Sprintf(format, args...))
}

// Filter returns events matching the predicate in time order.
type Filter struct {
	Kind     EventKind // "" = any
	Subject  string    // "" = any; substring match
	From, To float64   // To = 0 means +inf
}

// Query returns matching events.
func (l *Log) Query(f Filter) []Event {
	var out []Event
	for _, e := range l.events {
		if f.Kind != "" && e.Kind != f.Kind {
			continue
		}
		if f.Subject != "" && !strings.Contains(e.Subject, f.Subject) {
			continue
		}
		if e.At < f.From {
			continue
		}
		if f.To > 0 && e.At > f.To {
			continue
		}
		out = append(out, e)
	}
	return out
}

// --- Time scrubber -----------------------------------------------------

// Snapshot is the system state at one instant: enough to render the
// physical+logical views the paper's visualization tools showed.
type Snapshot struct {
	At float64
	// Links lists installed link IDs.
	Links []string
	// Intents maps link ID → intent state string.
	Intents map[string]string
	// Routes maps request → node path.
	Routes map[string][]string
	// Positions maps node → position.
	Positions map[string]geo.LLA
	// Value is the solver's utility for the active plan (observation
	// 4: "identify a metric for the value of each given network
	// solution").
	Value float64
}

// Scrubber stores periodic snapshots and serves StateAt queries.
type Scrubber struct {
	snaps []Snapshot
	// Cap bounds retained snapshots (0 = unbounded).
	Cap int
}

// Record appends a snapshot (time must be non-decreasing).
func (s *Scrubber) Record(snap Snapshot) {
	s.snaps = append(s.snaps, snap)
	if s.Cap > 0 && len(s.snaps) > s.Cap {
		drop := s.Cap / 4
		s.snaps = append(s.snaps[:0], s.snaps[drop:]...)
	}
}

// StateAt returns the latest snapshot at or before t.
func (s *Scrubber) StateAt(t float64) (Snapshot, bool) {
	i := sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].At > t })
	if i == 0 {
		return Snapshot{}, false
	}
	return s.snaps[i-1], true
}

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
	// Channel exhaustion at either platform?
	used := map[string]int{}
	for _, c := range plan.Links {
		used[c.Report.XA.Node.ID]++
		used[c.Report.XB.Node.ID]++
	}
	const channelCount = 8
	for _, x := range []*platform.Transceiver{xa, xb} {
		if used[x.Node.ID] >= channelCount {
			return fmt.Sprintf("no non-interfering channel available at %s", x.Node.ID)
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
