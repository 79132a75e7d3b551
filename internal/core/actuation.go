package core

import (
	"minkowski/internal/cdpi"
	"minkowski/internal/dataplane"
	"minkowski/internal/explain"
	"minkowski/internal/intent"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/sim"
)

// armState tracks a link-establishment intent across its two
// endpoint enactments: the fabric attempt starts only when both
// radios have armed (the synchronization the TTE exists for). It is a
// row of the controller's arm table. Its give-up timer's event,
// onTimeout, is bound once and acts for li.
type armState struct {
	li *intent.LinkIntent
	// ends are the link's two endpoints in node order.
	ends    [2]armEnd
	timeout sim.Timer
	// attempt number currently in flight.
	attempt   int
	onTimeout func()
	// pinned rows are never reused: an event bound to one may still be
	// queued with no handle left to cancel it.
	pinned bool
}

// armEnd is one endpoint: armed once its agent enacted the command,
// which it holds until the attempt resolves.
type armEnd struct {
	node  string
	armed bool
	hold  *cdpi.Hold
}

// complete answers the armed agents' held enactments in node order —
// response order drives RNG draw order downstream, so it must not
// depend on anything but the nodes.
func (a *armState) complete(ok bool) {
	for i := range a.ends {
		if h := a.ends[i].hold; h != nil {
			a.ends[i].hold = nil
			h.Done(ok)
		}
	}
}

// newArm takes an arm row off the free list, or makes one.
func (c *Controller) newArm(li *intent.LinkIntent, attempt int) *armState {
	var a *armState
	if n := len(c.freeArms); n > 0 {
		a, c.freeArms = c.freeArms[n-1], c.freeArms[:n-1]
	} else {
		a = &armState{}
		a.onTimeout = func() { c.armTimeout(a) }
	}
	a.li, a.attempt = li, attempt
	a.ends[0].node, a.ends[1].node = li.NodeA, li.NodeB
	if li.NodeB < li.NodeA {
		a.ends[0].node, a.ends[1].node = li.NodeB, li.NodeA
	}
	return a
}

// freeArm returns a row whose timer was canceled to the free list,
// unless it is pinned. Holds it still keeps are dropped unanswered.
func (c *Controller) freeArm(a *armState) {
	if a.pinned {
		return
	}
	*a = armState{onTimeout: a.onTimeout}
	c.freeArms = append(c.freeArms, a)
}

// actuate dispatches the reconciler's actions over the CDPI on behalf
// of the acting process.
func (c *Controller) actuate(acts intent.Actions) {
	c.actuateFor(&c.ctlState, acts)
}

// sendFor hands a command from control process p to the CDPI frontend
// — unless p's command path is deafened by a replica-partition fault,
// in which case the command is silently lost (counted, logged). All
// command dispatch funnels through here so the fault covers the acting
// primary, the deposed rogue, and the realignment loop alike; p's
// other planes (lease, replication, telemetry) are untouched.
func (c *Controller) sendFor(p *ctlState, cmd cdpi.Command) {
	if c.cmdDeaf[p.replica] {
		c.obsm.cmdDeafDrops.Inc()
		c.Obs.Rec.Event("cmd-deaf-drop", "replica="+p.replica)
		return
	}
	c.obsm.dispatches.Inc()
	c.Frontend.Send(cmd, nil)
}

// actuateFor dispatches actions for one control process — the acting
// primary, or the deposed rogue during a controller partition. Every
// command is stamped with the issuing process's fencing epoch, which
// is what lets agents reject a deposed dispatcher.
func (c *Controller) actuateFor(p *ctlState, acts intent.Actions) {
	for _, li := range acts.EstablishLinks {
		c.commandEstablish(p, li, 1)
	}
	for _, li := range acts.WithdrawLinks {
		c.commandWithdraw(p, li)
	}
	for _, ri := range acts.RemoveRoutes {
		c.commandRouteRemoval(p, ri)
	}
	for _, ri := range acts.ProgramRoutes {
		c.commandRouteProgram(p, ri)
	}
}

// commandEstablish sends the paired link-establish commands.
func (c *Controller) commandEstablish(p *ctlState, li *intent.LinkIntent, attempt int) {
	now := c.Eng.Now()
	// Restart-safety metric: commanding a first establish for a link
	// that is up AND still journaled means the controller forgot work
	// its own durable record says it already actuated — exactly what
	// restart reconciliation must prevent. (An up link with no journal
	// record is the benign baseline case — an earlier intent's attempt
	// outlived its bookkeeping — which enactEstablish adopts.)
	if attempt == 1 && p.Journal.HasLink(li.Link) {
		if l, up := c.Fabric.Get(li.Link); up && l.Up() {
			c.DuplicateEstablishes++
		}
	}
	nodes := [2]string{li.NodeA, li.NodeB}
	tte := c.Frontend.PickTTE(nodes[:])
	arm := c.newArm(li, attempt)
	if prev, ok := p.arms[li.Link]; ok {
		prev.pinned = true // its timer stays queued
	}
	p.arms[li.Link] = arm
	if attempt == 1 {
		p.Intents.MarkCommanded(li.Link, now)
	} else {
		p.Intents.MarkRetry(li.Link, now)
	}
	p.Journal.RecordLink(li)
	c.Log.Add(explain.Event{At: now, Op: explain.Establish, Link: li.Link, N: attempt, TTE: tte})
	for _, node := range nodes {
		c.sendFor(p, cdpi.Command{
			Node: node, Kind: cdpi.KindLinkEstablish,
			TTE: tte, Payload: li,
			Epoch: p.epoch,
		})
	}
	// Give-up timeout: if the link is not up (or being attempted)
	// well after the TTE plus the slowest acquisition, count the
	// attempt as failed and retry or abandon.
	wait := (tte - now) + 300
	arm.timeout = c.Eng.After(wait, arm.onTimeout)
}

// armTimeout fires when the establishment attempt of fired's intent
// went nowhere. The owning process is re-resolved by intent pointer at
// fire time: a promotion swaps the acting state wholesale, so an event
// must never capture a process reference at dispatch time.
func (c *Controller) armTimeout(fired *armState) {
	li := fired.li
	p, arm := c.armOwner(li)
	if arm == nil {
		return
	}
	if l, live := c.Fabric.Get(li.Link); live {
		if l.Up() {
			return // established; OnUp already handled it
		}
		// Still slewing/acquiring: give the radios more time rather
		// than declaring failure under them. The new event acts for
		// fired's intent; when that is another arm's, this arm's own
		// timer may still be queued, its handle overwritten.
		if arm != fired {
			arm.pinned, fired.pinned = true, true
		}
		arm.timeout = c.Eng.After(120, fired.onTimeout)
		return
	}
	c.finishAttempt(p, li.Link, false)
}

// enact is every node agent's enact function: it executes a held CDPI
// command against the node's radios and forwarding tables.
func (c *Controller) enact(h *cdpi.Hold) {
	cmd := &h.Cmd
	switch cmd.Kind {
	case cdpi.KindLinkEstablish:
		c.enactEstablish(cmd.Node, cmd.Payload.(*intent.LinkIntent), h)
	case cdpi.KindLinkWithdraw:
		// First enactment wins; the second is a no-op.
		c.Fabric.Withdraw(cmd.Payload.(*intent.LinkIntent).Link)
		h.Done(true)
	case cdpi.KindRouteUpdate:
		if r := cmd.Route; r.NextHop == "" {
			c.Data.RemoveEntry(cmd.Node, r.ID, r.Gen)
		} else {
			c.Data.InstallEntry(cmd.Node, r.ID, r.NextHop, r.Gen)
			c.checkRouteProgrammed(r.ID)
		}
		h.Done(true)
	default:
		// Drains and other node-level commands succeed trivially.
		h.Done(true)
	}
}

// enactEstablish arms one endpoint; when both endpoints are armed the
// radios begin the slew/search sequence.
func (c *Controller) enactEstablish(node string, li *intent.LinkIntent, h *cdpi.Hold) {
	p, arm := c.armOwner(li)
	if arm == nil {
		// The intent was superseded (withdrawn/failed) — or its
		// issuing process died — before this command arrived.
		h.Done(false)
		return
	}
	// The end is the node's: one link ID, one pair of nodes.
	e := &arm.ends[0]
	if e.node != node {
		e = &arm.ends[1]
	}
	e.armed, e.hold = true, h
	if !arm.ends[0].armed || !arm.ends[1].armed {
		return // waiting for the peer's enactment
	}
	// Both endpoints armed: start the physical attempt. If the
	// physical link already exists (an earlier intent's attempt
	// survived the intent's bookkeeping), adopt it instead of
	// fighting the busy transceivers.
	if l, ok := c.Fabric.Get(li.Link); ok {
		now := c.Eng.Now()
		p.Intents.MarkInstalling(li.Link, now)
		if l.Up() {
			p.Intents.MarkEstablished(li.Link, now)
			// Logged like a link-up: the scrubber's fold sees the adoption.
			c.Log.Add(explain.Event{At: now, Op: explain.LinkUp, Link: li.Link})
			c.finishAttempt(p, li.Link, true)
		}
		return // still installing: OnUp/OnDown will resolve it
	}
	xa, xb := c.Xcvr(li.XA), c.Xcvr(li.XB)
	if xa == nil || xb == nil {
		c.finishAttempt(p, li.Link, false)
		return
	}
	l := c.Fabric.Establish(xa, xb, li.Channel, arm.attempt)
	if l == nil {
		c.finishAttempt(p, li.Link, false)
		return
	}
	p.Intents.MarkInstalling(li.Link, c.Eng.Now())
}

// commandWithdraw sends the teardown commands — the *predictive*
// path: a planned withdrawal the network can route around before the
// physics force the issue.
func (c *Controller) commandWithdraw(p *ctlState, li *intent.LinkIntent) {
	now := c.Eng.Now()
	c.Log.Add(explain.Event{At: now, Op: explain.Withdraw, Link: li.Link})
	// Cancel any in-flight establishment.
	if arm, ok := p.arms[li.Link]; ok {
		arm.timeout.Cancel()
		delete(p.arms, li.Link)
		c.freeArm(arm)
	}
	nodes := [2]string{li.NodeA, li.NodeB}
	tte := c.Frontend.PickTTE(nodes[:])
	for _, node := range nodes {
		c.sendFor(p, cdpi.Command{
			Node: node, Kind: cdpi.KindLinkWithdraw,
			TTE: tte, Payload: li,
			Epoch: p.epoch,
		})
	}
	// If neither endpoint is reachable the fabric link (if any) will
	// fail on its own; mark the intent withdrawn when the fabric
	// reports it (onLinkDown) or directly if no physical link exists.
	if _, live := c.Fabric.Get(li.Link); !live {
		p.Intents.MarkWithdrawn(li.Link, now)
		p.Journal.DropLink(li.Link)
	}
}

// commandRouteProgram declares the route and pushes per-node entries.
// Reprograms (generation > 1) roll out WITHOUT sequencing: each
// node's enactment is staggered across routeStaggerS, reproducing the
// temporary blackholes the paper's actuation layer suffered when a
// topology change and its route updates raced.
func (c *Controller) commandRouteProgram(p *ctlState, ri *intent.RouteIntent) {
	c.Data.DeclareRoute(dataplane.Route{ID: ri.ID, Path: ri.Path, Generation: ri.Generation})
	p.Journal.RecordRoute(ri)
	c.Log.Add(explain.Event{At: c.Eng.Now(), Op: explain.RouteProgram, Name: ri.ID, N: ri.Generation, Path: ri.Path})
	for i := 0; i < len(ri.Path)-1; i++ {
		node, next := ri.Path[i], ri.Path[i+1]
		tte := c.Frontend.PickTTE(ri.Path[i : i+1])
		if ri.Generation > 1 {
			tte += c.Eng.RNG("actuation").Float64() * routeStaggerS
		}
		c.sendFor(p, cdpi.Command{
			Node: node, Kind: cdpi.KindRouteUpdate,
			TTE:   tte,
			Route: cdpi.RouteEntry{ID: ri.ID, NextHop: next, Gen: ri.Generation},
			Epoch: p.epoch,
		})
	}
}

// commandRouteRemoval withdraws a route's entries.
func (c *Controller) commandRouteRemoval(p *ctlState, ri *intent.RouteIntent) {
	p.Journal.DropRoute(ri.ID)
	c.Log.Add(explain.Event{At: c.Eng.Now(), Op: explain.RouteRemove, Name: ri.ID, N: ri.Generation})
	for i := 0; i < len(ri.Path)-1; i++ {
		c.sendFor(p, cdpi.Command{
			Node: ri.Path[i], Kind: cdpi.KindRouteUpdate,
			Route: cdpi.RouteEntry{ID: ri.ID, Gen: ri.Generation},
			Epoch: p.epoch,
		})
	}
	c.Data.DropRoute(ri.ID)
}

// realignRoutes re-pushes forwarding entries for route intents that
// never fully programmed (commands lost while a node was out of
// band, or state flushed by a power cycle). This is the paper's
// actuation loop: "continuously monitored node state, and dispatched
// commands using the CDPI to align node behavior with the desired
// intents."
func (c *Controller) realignRoutes() {
	c.routes = c.Intents.AppendActiveRoutes(c.routes[:0])
	for _, ri := range c.routes {
		if c.Data.FullyProgrammed(ri.ID) {
			continue
		}
		for i := 0; i < len(ri.Path)-1; i++ {
			node, next := ri.Path[i], ri.Path[i+1]
			if c.Data.HasEntry(node, ri.ID, ri.Generation) {
				continue
			}
			// Only worth sending when the node is reachable in-band
			// (route updates cannot ride satcom); otherwise try again
			// next cycle.
			if !c.Frontend.InBandUp(node) {
				continue
			}
			c.sendFor(&c.ctlState, cdpi.Command{
				Node: node, Kind: cdpi.KindRouteUpdate,
				TTE:   c.Frontend.PickTTE(ri.Path[i : i+1]),
				Route: cdpi.RouteEntry{ID: ri.ID, NextHop: next, Gen: ri.Generation},
				Epoch: c.epoch,
			})
		}
	}
}

// checkRouteProgrammed promotes a route intent once all entries land
// (in every live process that tracks the route).
func (c *Controller) checkRouteProgrammed(routeID string) {
	if !c.Data.FullyProgrammed(routeID) {
		return
	}
	for _, p := range c.procs() {
		p.Intents.MarkRouteProgrammed(routeID, c.Eng.Now())
	}
}

// finishAttempt resolves one establishment attempt for the owning
// process p: answer the armed agents, then retry or abandon.
func (c *Controller) finishAttempt(p *ctlState, id radio.LinkID, ok bool) {
	arm, live := p.arms[id]
	if !live {
		return
	}
	arm.complete(ok)
	arm.timeout.Cancel()
	delete(p.arms, id)
	attempt := arm.attempt
	c.freeArm(arm)
	if ok {
		return
	}
	li, active := p.Intents.ActiveLink(id)
	if !active {
		return
	}
	if attempt >= maxEstablishAttempts {
		p.Intents.MarkFailed(id, "acquire-failed", c.Eng.Now())
		p.Journal.DropLink(id)
		c.Log.Add(explain.Event{At: c.Eng.Now(), Op: explain.LinkAbandoned, Link: id, N: attempt})
		return
	}
	// Retry at once — "since Loon's TS-SDN lacked a feedback loop and
	// relied on modeled data for network planning, links were retried
	// repeatedly."
	c.commandEstablish(p, li, attempt+1)
}

// onLinkUp handles the fabric's link-up callback. It fans out to
// every live control process (the acting one, plus the rogue during a
// partition): each keeps its own intent/journal view of the same
// physical event.
func (c *Controller) onLinkUp(l *radio.Link) {
	now := c.Eng.Now()
	c.Router.TopologyChanged()
	for _, p := range c.procs() {
		p.Intents.MarkEstablished(l.ID, now)
		if li, ok := p.Intents.ActiveLink(l.ID); ok {
			p.Journal.RecordLink(li)
		}
		c.finishAttempt(p, l.ID, true)
	}
	c.Log.Add(explain.Event{At: now, Op: explain.LinkUp, Link: l.ID})
	// Fig. 10: compare the radios' measurement with the model's
	// expectation for B2B links. A byzantine endpoint inflates its
	// reported margin; the calibration sample's plausibility bound is
	// what keeps the lie out of the distribution.
	if !l.IsB2G() {
		if rep := c.Evaluator.EvaluatePair(l.XA, l.XB, 0); rep != nil {
			measured := l.Measured.RxPowerDBm
			if c.byzantine[l.XA.Node.Index] || c.byzantine[l.XB.Node.Index] {
				measured += byzantineMarginSpoofDB
			}
			c.ModelErr.Record(measured, rep.Budget.RxPowerDBm)
		}
	}
}

// onLinkDown handles the fabric's link-down callback for every
// termination, planned or not.
func (c *Controller) onLinkDown(l *radio.Link, r radio.Reason) {
	now := c.Eng.Now()
	c.Router.TopologyChanged()
	c.LinkLife.RecordEnd(l)
	wasUp := l.EstablishedAt > 0
	if wasUp {
		// Only installed-link terminations count as recovery-relevant
		// link events (Fig. 8 attribution).
		c.Recovery.LinkEvent(now, r == radio.ReasonWithdrawn)
		c.RecoveryCtrl.LinkEvent(now, r == radio.ReasonWithdrawn)
	}
	c.Log.Add(explain.Event{At: now, Op: explain.LinkDown, Link: l.ID, Reason: r})
	for _, p := range c.procs() {
		switch {
		case r == radio.ReasonWithdrawn:
			p.Intents.MarkWithdrawn(l.ID, now)
			p.Journal.DropLink(l.ID)
		case !wasUp:
			// A failed establishment attempt: retry logic.
			c.finishAttempt(p, l.ID, false)
		default:
			// An installed link died unexpectedly.
			p.Intents.MarkFailed(l.ID, r.String(), now)
			p.Journal.DropLink(l.ID)
		}
	}
}

// Xcvr locates a transceiver by ID on the current fleet.
func (c *Controller) Xcvr(id string) *platform.Transceiver {
	for _, n := range c.Fleet.Nodes() {
		for _, x := range n.Xcvrs {
			if x.ID == id {
				return x
			}
		}
	}
	return nil
}
