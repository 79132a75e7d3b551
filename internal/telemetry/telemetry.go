// Package telemetry collects the measurements behind every figure in
// the paper's evaluation: layered reachability (Fig. 6), redundancy
// utilization (Fig. 7), route-recovery timing (Fig. 8), enactment
// latency (Fig. 9, collected by the CDPI frontend), modelled-vs-
// measured error (Fig. 10), link lifetimes (Fig. 11), and
// candidate-graph churn (Fig. 4).
package telemetry

import (
	"math"

	"minkowski/internal/linkeval"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/stats"
)

// Layer identifies the three availability layers of Fig. 6.
type Layer int

const (
	// LayerLink is link-layer operability (node has an installed
	// link).
	LayerLink Layer = iota
	// LayerControl is in-band control-plane reachability (MANET path
	// to an SDN endpoint).
	LayerControl
	// LayerData is SDN-programmed data-plane reachability.
	LayerData
)

// Reachability accumulates the Fig. 6 ratios: per layer, the time a
// node was operable over its potential operable time, bucketed into
// periods (the paper plots months; simulations use days).
type Reachability struct {
	// PeriodS buckets observations (e.g. 86400 for daily series).
	PeriodS float64
	// operable[layer][period] and potential[layer][period] accumulate
	// seconds; a period no sample reached holds zero potential.
	operable  [3][]float64
	potential [3][]float64
	// last holds each node's previous sample per layer, for
	// integration, by node index.
	last [][3]reachSample
}

// reachSample is one node's last observation of one layer.
type reachSample struct {
	t        float64
	up, seen bool
}

// NewReachability creates a tracker with the given bucketing period.
func NewReachability(periodS float64) *Reachability {
	return &Reachability{PeriodS: periodS}
}

// Observe records that a node's layer has been `up` since the last
// observation. Call at a fixed cadence while the node is *potentially
// operable* (powered service window); omit calls when the node is
// legitimately dark (night) so that potential time excludes it.
func (r *Reachability) Observe(now float64, node int32, layer Layer, up bool) {
	r.last = platform.Fit(r.last, node)
	s := &r.last[node][layer]
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
func (r *Reachability) Ratio(layer Layer) float64 {
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
func (r *Reachability) Series(layer Layer) []float64 {
	var out []float64
	for p, pot := range r.potential[layer] {
		if pot > 0 {
			out = append(out, r.operable[layer][p]/pot)
		}
	}
	return out
}

// --- Fig. 11: link lifetimes ---------------------------------------

// LinkLife summarizes completed links from the radio fabric history.
type LinkLife struct {
	// Lifetimes of installed links, split B2G/B2B.
	B2G, B2B stats.Sample
	// Ends counts end reasons per type.
	EndsB2G, EndsB2B *stats.Counter
	// FirstAttemptOK / FirstAttempts track establishment success.
	firstTry map[radio.LinkID]bool // success of first attempt
	everUp   map[radio.LinkID]bool
	attempts map[radio.LinkID]int
	isB2G    map[radio.LinkID]bool
	// AttemptsToSuccess samples the attempt number that succeeded.
	AttemptsToSuccess stats.Sample
}

// NewLinkLife creates the collector.
func NewLinkLife() *LinkLife {
	return &LinkLife{
		EndsB2G: stats.NewCounter(), EndsB2B: stats.NewCounter(),
		firstTry: map[radio.LinkID]bool{},
		everUp:   map[radio.LinkID]bool{},
		attempts: map[radio.LinkID]int{},
		isB2G:    map[radio.LinkID]bool{},
	}
}

// RecordEnd consumes one completed link from the fabric.
func (ll *LinkLife) RecordEnd(l *radio.Link) {
	ll.isB2G[l.ID] = l.IsB2G()
	ll.attempts[l.ID]++
	wasUp := l.EstablishedAt > 0
	if ll.attempts[l.ID] == 1 {
		ll.firstTry[l.ID] = wasUp
	}
	if !wasUp {
		return
	}
	ll.everUp[l.ID] = true
	ll.AttemptsToSuccess.Add(float64(l.Attempt))
	life := l.Lifetime()
	if l.IsB2G() {
		ll.B2G.Add(life)
		ll.EndsB2G.Inc(l.EndReason.String())
	} else {
		ll.B2B.Add(life)
		ll.EndsB2B.Inc(l.EndReason.String())
	}
}

// FirstAttemptRate returns the fraction of pairs whose very first
// attempt succeeded, split by type.
func (ll *LinkLife) FirstAttemptRate() (b2g, b2b float64) {
	var okG, nG, okB, nB int
	for id, ok := range ll.firstTry {
		if ll.isB2G[id] {
			nG++
			if ok {
				okG++
			}
		} else {
			nB++
			if ok {
				okB++
			}
		}
	}
	div := func(a, b int) float64 {
		if b == 0 {
			return math.NaN()
		}
		return float64(a) / float64(b)
	}
	return div(okG, nG), div(okB, nB)
}

// NeverSucceededFrac returns the fraction of attempted pairs that
// never came up (the paper's 35%).
func (ll *LinkLife) NeverSucceededFrac() float64 {
	if len(ll.attempts) == 0 {
		return math.NaN()
	}
	never := 0
	for id := range ll.attempts {
		if !ll.everUp[id] {
			never++
		}
	}
	return float64(never) / float64(len(ll.attempts))
}

// UnexpectedEndFrac returns the fraction of installed-link ends that
// were unplanned, overall and split (the paper: 47.4% overall, 69.2%
// B2G, 39.2% B2B).
func (ll *LinkLife) UnexpectedEndFrac() (overall, b2g, b2b float64) {
	unexpected := func(c *stats.Counter) (int, int) {
		bad := 0
		for _, label := range c.Labels() {
			if label != "withdrawn" {
				bad += c.Get(label)
			}
		}
		return bad, c.Total()
	}
	bg, tg := unexpected(ll.EndsB2G)
	bb, tb := unexpected(ll.EndsB2B)
	div := func(a, b int) float64 {
		if b == 0 {
			return math.NaN()
		}
		return float64(a) / float64(b)
	}
	return div(bg+bb, tg+tb), div(bg, tg), div(bb, tb)
}

// --- Fig. 10: modelled vs measured ----------------------------------

// ModelError samples measured-minus-modelled channel values for
// installed B2B links: positive dB means more signal measured than
// modelled (the paper's deliberate pessimism shows as a +4.3 dB
// shift).
type ModelError struct {
	Errors stats.Sample
	// MaxAbsDB, when positive, rejects samples whose absolute error
	// exceeds it: honest model error is a few dB (the paper's Fig. 10
	// spread), so a report tens of dB off is byzantine or broken
	// instrumentation, not physics — folding it into the distribution
	// would poison the calibration.
	MaxAbsDB float64
	// Rejected counts samples the bound discarded.
	Rejected int
}

// Record adds one comparison sample, unless it exceeds the
// plausibility bound.
func (me *ModelError) Record(measuredRxDBm, modelledRxDBm float64) {
	err := measuredRxDBm - modelledRxDBm
	if me.MaxAbsDB > 0 && (err > me.MaxAbsDB || err < -me.MaxAbsDB) {
		me.Rejected++
		return
	}
	me.Errors.Add(err)
}

// --- Fig. 8: route recovery ------------------------------------------

// RecoveryCause labels what co-occurred with a data-plane breakage.
type RecoveryCause int

const (
	// CauseFailed: an unexpected link failure broke the route.
	CauseFailed RecoveryCause = iota
	// CauseWithdrawn: a planned link withdrawal broke the route.
	CauseWithdrawn
	// CauseUnknown: no link event near the breakage.
	CauseUnknown
)

// Recovery tracks per-node data-plane breakage and repair (Fig. 8):
// time-to-repair distributions split by cause, restricted to
// recoveries within the window (the paper analyzes <5 min).
type Recovery struct {
	// WindowS is the maximum recovery time considered (300 s in the
	// paper's figure).
	WindowS float64
	// AttributionS is how close (in seconds) a link event must be to
	// a breakage to be its cause.
	AttributionS float64

	// Breakages by node index: start time and cause of an open one.
	open []openBreak
	// Withdrawn and Failed recovery-time samples.
	Withdrawn, Failed, Unknown stats.Sample
	// RecoveredWithNewLink counts repairs that required installing a
	// new link vs not (the paper: 92.4% without).
	RecoveredWithNewLink, RecoveredWithoutNewLink int

	// recent link events for attribution: time → planned?
	recentEvents []linkEvent
}

type openBreak struct {
	broken   bool
	at       float64
	cause    RecoveryCause
	linksUp0 int // links installed at break time (new-link detection)
}

type linkEvent struct {
	at      float64
	planned bool
}

// NewRecovery creates the tracker with the paper's 5-minute window.
func NewRecovery() *Recovery {
	return &Recovery{WindowS: 300, AttributionS: 15}
}

// LinkEvent records a link termination (planned = withdrawal) for
// cause attribution. A break often begins *before* its causal link
// event is observed — the controller drops the old route at solve
// time and the link withdrawal enacts a few seconds later — so open
// unattributed breaks within the window are upgraded retroactively.
func (rc *Recovery) LinkEvent(now float64, planned bool) {
	rc.recentEvents = append(rc.recentEvents, linkEvent{at: now, planned: planned})
	// Garbage-collect old events.
	cut := 0
	for cut < len(rc.recentEvents) && rc.recentEvents[cut].at < now-2*rc.AttributionS {
		cut++
	}
	rc.recentEvents = rc.recentEvents[cut:]
	// Retroactive attribution of open breaks.
	for i := range rc.open {
		ob := &rc.open[i]
		if ob.broken && ob.cause == CauseUnknown && now-ob.at <= rc.AttributionS && now >= ob.at {
			if planned {
				ob.cause = CauseWithdrawn
			} else {
				ob.cause = CauseFailed
			}
		}
	}
}

// attribute finds the cause of a breakage at time t.
func (rc *Recovery) attribute(t float64) RecoveryCause {
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
func (rc *Recovery) ObserveNode(now float64, node int32, reachable bool, linksInstalledTotal int) {
	rc.open = platform.Fit(rc.open, node)
	ob := rc.open[node]
	if !reachable {
		if !ob.broken {
			rc.open[node] = openBreak{broken: true, at: now, cause: rc.attribute(now), linksUp0: linksInstalledTotal}
		}
		return
	}
	if !ob.broken {
		return
	}
	rc.open[node].broken = false
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

// MeanImprovement returns how much faster withdrawn-caused recoveries
// are vs failed-caused, as a fraction (the paper's 37.8%).
func (rc *Recovery) MeanImprovement() float64 {
	f, w := rc.Failed.Mean(), rc.Withdrawn.Mean()
	if math.IsNaN(f) || math.IsNaN(w) || f == 0 {
		return math.NaN()
	}
	return (f - w) / f
}

// --- Fig. 7: redundancy ----------------------------------------------

// Redundancy samples intended vs established redundancy fractions
// over time.
type Redundancy struct {
	Intended, Established stats.Sample
	// ZeroRedundancySamples counts observations with no established
	// redundancy at all (the paper's 14%).
	ZeroRedundancySamples, TotalSamples int
}

// Observe records one sample of the Appendix A fractions.
func (rd *Redundancy) Observe(intendedFrac, establishedFrac float64) {
	if !math.IsNaN(intendedFrac) {
		rd.Intended.Add(intendedFrac)
	}
	if !math.IsNaN(establishedFrac) {
		rd.Established.Add(establishedFrac)
		rd.TotalSamples++
		if establishedFrac <= 0 {
			rd.ZeroRedundancySamples++
		}
	}
}

// ZeroFrac returns the fraction of time with no redundancy.
func (rd *Redundancy) ZeroFrac() float64 {
	if rd.TotalSamples == 0 {
		return math.NaN()
	}
	return float64(rd.ZeroRedundancySamples) / float64(rd.TotalSamples)
}

// --- Fig. 4: candidate churn ----------------------------------------

// Churn accumulates candidate-graph deltas at two cadences.
type Churn struct {
	// HourlyFrac is the per-hour fraction changed; MinuteChanged the
	// per-minute changed-link count.
	HourlyFrac    stats.Sample
	MinuteChanged stats.Sample
	// Sizes tracks candidate graph size, split by type.
	Size, B2B, B2G stats.Sample
	// StableHours / StableMinutes count zero-delta intervals.
	StableHours, TotalHours     int
	StableMinutes, TotalMinutes int
}

// ObserveHour records an hour-over-hour delta.
func (c *Churn) ObserveHour(d linkeval.GraphDelta) {
	c.TotalHours++
	if !d.Changed() {
		c.StableHours++
	}
	c.HourlyFrac.Add(d.FracChanged())
}

// ObserveMinute records a minute-over-minute delta.
func (c *Churn) ObserveMinute(d linkeval.GraphDelta) {
	c.TotalMinutes++
	if !d.Changed() {
		c.StableMinutes++
	}
	c.MinuteChanged.Add(float64(d.Added + d.Removed))
}

// ObserveSize records a graph's size decomposition.
func (c *Churn) ObserveSize(g []*linkeval.Report) {
	b2b, b2g := linkeval.CountByType(g)
	c.Size.Add(float64(len(g)))
	c.B2B.Add(float64(b2b))
	c.B2G.Add(float64(b2g))
}

// ChangedHourFrac returns the fraction of hours with any change (the
// paper's 99.9%).
func (c *Churn) ChangedHourFrac() float64 {
	if c.TotalHours == 0 {
		return math.NaN()
	}
	return 1 - float64(c.StableHours)/float64(c.TotalHours)
}

// StableMinuteFrac returns the fraction of stable minutes (the
// paper's 3.5%).
func (c *Churn) StableMinuteFrac() float64 {
	if c.TotalMinutes == 0 {
		return math.NaN()
	}
	return float64(c.StableMinutes) / float64(c.TotalMinutes)
}
