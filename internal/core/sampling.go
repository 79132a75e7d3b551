package core

import (
	"minkowski/internal/linkeval"
	"minkowski/internal/platform"
	"minkowski/internal/solver"
	"minkowski/internal/telemetry"
)

// inService reports whether a balloon counts toward availability:
// powered AND under an active backhaul request. The paper's ratios
// measure time "the layer was successfully operable over the total
// potential operable time" — a balloon outside the service region
// isn't potential operable time.
func (c *Controller) inService(n *platform.Node) bool {
	return n.Kind == platform.KindBalloon && n.Operational() && c.NBI.HasActiveBackhaul(n.ID)
}

// layers reads n's availability now, layer by layer: the link layer
// (any installed fabric link), the in-band control plane (a MANET path
// to an SDN endpoint) and the data plane (its programmed backhaul route
// operable). ok is false when n is not in service. Every availability
// probe reads the layers through here.
func (c *Controller) layers(n *platform.Node) (link, ctrl, data, ok bool) {
	if !c.inService(n) {
		return false, false, false, false
	}
	return c.Fabric.NodeUp(n.ID), c.InBand.Connected(n.ID), c.Data.Operable("backhaul/"+n.ID, c.fabricLinks), true
}

// sampleTelemetry observes the Fig. 6/7 signals for every balloon
// currently in its potential service window.
func (c *Controller) sampleTelemetry() {
	now := c.Eng.Now()
	for _, n := range c.Fleet.Nodes() {
		link, ctrl, data, ok := c.layers(n)
		if !ok {
			continue
		}
		c.Reach.Observe(now, n.ID, telemetry.LayerLink, link)
		c.Reach.Observe(now, n.ID, telemetry.LayerControl, ctrl)
		c.Reach.Observe(now, n.ID, telemetry.LayerData, data)
	}
	// Fig. 7: redundancy utilization (established vs intended).
	installed := c.Fabric.UpCount()
	grounds := len(c.gateways)
	operBalloons := 0
	for _, n := range c.Fleet.Nodes() {
		if n.Kind == platform.KindBalloon && n.Operational() {
			operBalloons++
		}
	}
	if operBalloons > 0 {
		established := solver.RedundancyFraction(installed, operBalloons, grounds)
		intended := solver.RedundancyFraction(c.intendedLinkCount(), operBalloons, grounds)
		c.Redund.Observe(intended, established)
	}
}

// intendedLinkCount is the number of links the last plan wanted.
func (c *Controller) intendedLinkCount() int {
	if c.lastPlan == nil {
		return 0
	}
	return len(c.lastPlan.Links)
}

// sampleRecovery runs at a finer cadence than the availability
// sampler so that short (sub-half-minute) breakages — exactly the
// ones planned withdrawals produce — are observed (Fig. 8). It also
// tracks control-plane breakage durations, which the paper reports
// recovering within 20 s for 75% of broken routes.
func (c *Controller) sampleRecovery() {
	now := c.Eng.Now()
	installed := c.Fabric.UpCount()
	for _, n := range c.Fleet.Nodes() {
		_, ctrl, data, ok := c.layers(n)
		if !ok {
			continue
		}
		c.Recovery.ObserveNode(now, n.ID, data, installed)
		c.RecoveryCtrl.ObserveNode(now, n.ID, ctrl, installed)
	}
}

// sampleChurn diffs the candidate graph minute over minute and hour
// over hour (Fig. 4). Only runs when Cfg.ChurnSampling is set.
func (c *Controller) sampleChurn() {
	ch := &c.churn
	c.xcvrs = c.Fleet.AppendTransceivers(c.xcvrs[:0])
	g := c.Evaluator.CandidateGraph(c.xcvrs, 0)
	c.Churn.ObserveSize(g)
	ch.cur = linkeval.AppendIDs(ch.cur[:0], g)
	if ch.haveMin {
		c.Churn.ObserveMinute(linkeval.Diff(ch.prevMin, ch.cur))
	}
	// Hourly cadence rides the minute sampler.
	if int(c.Eng.Now())%3600 < 60 {
		if ch.haveHour {
			c.Churn.ObserveHour(linkeval.Diff(ch.prevHour, ch.cur))
		}
		ch.prevHour, ch.haveHour = append(ch.prevHour[:0], ch.cur...), true
	}
	ch.cur, ch.prevMin, ch.haveMin = ch.prevMin, ch.cur, true
}
