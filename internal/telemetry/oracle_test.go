package telemetry

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"minkowski/internal/stats"
)

// The name-keyed Reachability and Recovery the index-keyed trackers
// replaced, kept as oracles: same code, per-node state in maps keyed by
// node name.

// nameReachability accumulates the Fig. 6 ratios: per layer, the time a
// node was operable over its potential operable time, bucketed into
// periods (the paper plots months; simulations use days).
type nameReachability struct {
	// PeriodS buckets observations (e.g. 86400 for daily series).
	PeriodS float64
	// operable[layer][period] and potential[layer][period] accumulate
	// seconds; a period no sample reached holds zero potential.
	operable  [3][]float64
	potential [3][]float64
	// last holds each node's previous sample per layer, for integration.
	last map[string]*[3]reachSample
}

// newNameReachability creates a tracker with the given bucketing period.
func newNameReachability(periodS float64) *nameReachability {
	return &nameReachability{PeriodS: periodS, last: map[string]*[3]reachSample{}}
}

// Observe records that a node's layer has been `up` since the last
// observation. Call at a fixed cadence while the node is *potentially
// operable* (powered service window); omit calls when the node is
// legitimately dark (night) so that potential time excludes it.
func (r *nameReachability) Observe(now float64, node string, layer Layer, up bool) {
	n := r.last[node]
	if n == nil {
		n = new([3]reachSample)
		r.last[node] = n
	}
	s := &n[layer]
	// Ignore gaps (node was dark between observations).
	if dt := now - s.t; s.seen && dt > 0 && dt < r.PeriodS {
		p := int(s.t / r.PeriodS)
		for len(r.potential[layer]) <= p {
			r.potential[layer] = append(r.potential[layer], 0)
			r.operable[layer] = append(r.operable[layer], 0)
		}
		r.potential[layer][p] += dt
		if s.up {
			r.operable[layer][p] += dt
		}
	}
	*s = reachSample{t: now, up: up, seen: true}
}

// Ratio returns a layer's availability over all periods, summed in
// period order so the result does not depend on anything but the
// samples.
func (r *nameReachability) Ratio(layer Layer) float64 {
	var op, pot float64
	for p, v := range r.potential[layer] {
		pot += v
		op += r.operable[layer][p]
	}
	if pot == 0 {
		return math.NaN()
	}
	return op / pot
}

// Series returns the per-period availability ratios for a layer, in
// period order, skipping periods no sample reached (the Fig. 6 time
// series).
func (r *nameReachability) Series(layer Layer) []float64 {
	var out []float64
	for p, pot := range r.potential[layer] {
		if pot > 0 {
			out = append(out, r.operable[layer][p]/pot)
		}
	}
	return out
}

type nameOpenBreak struct {
	at       float64
	cause    RecoveryCause
	linksUp0 int // links installed at break time (new-link detection)
}

// nameRecovery tracks per-node data-plane breakage and repair (Fig. 8):
// time-to-repair distributions split by cause, restricted to
// recoveries within the window (the paper analyzes <5 min).
type nameRecovery struct {
	// WindowS is the maximum recovery time considered (300 s in the
	// paper's figure).
	WindowS float64
	// AttributionS is how close (in seconds) a link event must be to
	// a breakage to be its cause.
	AttributionS float64

	// Open breakages per node: start time and cause.
	open map[string]nameOpenBreak
	// Withdrawn and Failed recovery-time samples.
	Withdrawn, Failed, Unknown stats.Sample
	// RecoveredWithNewLink counts repairs that required installing a
	// new link vs not (the paper: 92.4% without).
	RecoveredWithNewLink, RecoveredWithoutNewLink int

	// recent link events for attribution: time → planned?
	recentEvents []linkEvent
}

// newNameRecovery creates the tracker with the paper's 5-minute window.
func newNameRecovery() *nameRecovery {
	return &nameRecovery{WindowS: 300, AttributionS: 15, open: map[string]nameOpenBreak{}}
}

// LinkEvent records a link termination (planned = withdrawal) for
// cause attribution. A break often begins *before* its causal link
// event is observed — the controller drops the old route at solve
// time and the link withdrawal enacts a few seconds later — so open
// unattributed breaks within the window are upgraded retroactively.
func (rc *nameRecovery) LinkEvent(now float64, planned bool) {
	rc.recentEvents = append(rc.recentEvents, linkEvent{at: now, planned: planned})
	// Garbage-collect old events.
	cut := 0
	for cut < len(rc.recentEvents) && rc.recentEvents[cut].at < now-2*rc.AttributionS {
		cut++
	}
	rc.recentEvents = rc.recentEvents[cut:]
	// Retroactive attribution of open breaks.
	for node, ob := range rc.open {
		if ob.cause == CauseUnknown && now-ob.at <= rc.AttributionS && now >= ob.at {
			if planned {
				ob.cause = CauseWithdrawn
			} else {
				ob.cause = CauseFailed
			}
			rc.open[node] = ob
		}
	}
}

// attribute finds the cause of a breakage at time t.
func (rc *nameRecovery) attribute(t float64) RecoveryCause {
	cause := CauseUnknown
	best := rc.AttributionS + 1
	for _, e := range rc.recentEvents {
		d := math.Abs(e.at - t)
		if d <= rc.AttributionS && d < best {
			best = d
			if e.planned {
				cause = CauseWithdrawn
			} else {
				cause = CauseFailed
			}
		}
	}
	return cause
}

// ObserveNode records a node's data-plane reachability at time now;
// linksInstalledTotal is the current installed-link count (used to
// detect whether recovery required new links).
func (rc *nameRecovery) ObserveNode(now float64, node string, reachable bool, linksInstalledTotal int) {
	ob, broken := rc.open[node]
	if !reachable {
		if !broken {
			rc.open[node] = nameOpenBreak{at: now, cause: rc.attribute(now), linksUp0: linksInstalledTotal}
		}
		return
	}
	if !broken {
		return
	}
	delete(rc.open, node)
	dur := now - ob.at
	if dur > rc.WindowS {
		return
	}
	switch ob.cause {
	case CauseWithdrawn:
		rc.Withdrawn.Add(dur)
	case CauseFailed:
		rc.Failed.Add(dur)
	default:
		rc.Unknown.Add(dur)
	}
	if linksInstalledTotal > ob.linksUp0 {
		rc.RecoveredWithNewLink++
	} else {
		rc.RecoveredWithoutNewLink++
	}
}

// TestIndexKeyedTrackersMatchNameKeyed drives the index-keyed
// trackers and the name-keyed oracles with one seeded observation
// stream, node by node: nodes join, leave for a while (their samples
// stop, so the gap is not potential time) and re-register under the
// same name and index, across period boundaries and interleaved link
// events. Ratio, Series and every recovery sample must agree bit for
// bit.
func TestIndexKeyedTrackersMatchNameKeyed(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"gs-0", "hbal-001", "hbal-002", "hbal-003", "hbal-004", "hbal-005", "hbal-006"}
		present := make([]bool, len(names))
		reach, refReach := NewReachability(1800), newNameReachability(1800)
		rec, refRec := NewRecovery(), newNameRecovery()
		installed := 10
		for step := 0; step < 2000; step++ {
			now := float64(step) * 5
			if rng.Intn(8) == 0 {
				installed += rng.Intn(3) - 1
				planned := rng.Intn(2) == 0
				rec.LinkEvent(now, planned)
				refRec.LinkEvent(now, planned)
			}
			for i, name := range names {
				if rng.Intn(100) == 0 {
					present[i] = !present[i] // a departure, or a (re-)registration
				}
				if !present[i] {
					continue
				}
				for layer := LayerLink; layer <= LayerData; layer++ {
					up := rng.Intn(5) != 0
					reach.Observe(now, int32(i), layer, up)
					refReach.Observe(now, name, layer, up)
				}
				ok := rng.Intn(6) != 0
				rec.ObserveNode(now, int32(i), ok, installed)
				refRec.ObserveNode(now, name, ok, installed)
			}
		}
		for layer := LayerLink; layer <= LayerData; layer++ {
			if got, want := reach.Ratio(layer), refReach.Ratio(layer); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("seed %d layer %d: Ratio %v, name-keyed %v", seed, layer, got, want)
			}
			if got, want := reach.Series(layer), refReach.Series(layer); !slices.Equal(got, want) {
				t.Errorf("seed %d layer %d: Series %v, name-keyed %v", seed, layer, got, want)
			}
		}
		same := func(a, b *stats.Sample) bool { return slices.Equal(a.Values(), b.Values()) }
		if !same(&rec.Withdrawn, &refRec.Withdrawn) || !same(&rec.Failed, &refRec.Failed) || !same(&rec.Unknown, &refRec.Unknown) ||
			rec.RecoveredWithNewLink != refRec.RecoveredWithNewLink || rec.RecoveredWithoutNewLink != refRec.RecoveredWithoutNewLink {
			t.Errorf("seed %d: recovery samples differ: withdrawn %d/%d failed %d/%d unknown %d/%d new-link %d/%d",
				seed, rec.Withdrawn.N(), refRec.Withdrawn.N(), rec.Failed.N(), refRec.Failed.N(),
				rec.Unknown.N(), refRec.Unknown.N(), rec.RecoveredWithNewLink, refRec.RecoveredWithNewLink)
		}
		if rec.Withdrawn.N()+rec.Failed.N()+rec.Unknown.N() == 0 {
			t.Errorf("seed %d: the stream recovered nothing; it tests nothing", seed)
		}
	}
}
