package core

import (
	"fmt"
	"sort"

	"minkowski/internal/cdpi"
	"minkowski/internal/dataplane"
	"minkowski/internal/explain"
	"minkowski/internal/intent"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/sim"
)

// linkPayload is the CDPI payload of a link command: everything a
// node needs to form (or drop) a link — "a future enactment
// timestamp, anticipated pointing geometry, transmit and receive
// channel characteristics, and the identity of the intended peer."
type linkPayload struct {
	intent *intent.LinkIntent
}

// routePayload is the CDPI payload of a route command for one node.
type routePayload struct {
	routeID string
	nextHop string // "" = remove the entry
	gen     int
	path    []string
}

// armState tracks a link-establishment intent across its two
// endpoint enactments: the fabric attempt starts only when both
// radios have armed (the synchronization the TTE exists for).
type armState struct {
	li      *intent.LinkIntent
	armed   map[string]bool
	done    map[string]func(bool)
	timeout sim.Timer
	// attempt number currently in flight.
	attempt int
}

// complete invokes the armed agents' completion callbacks in
// deterministic (node-sorted) order — callback order drives RNG draw
// order downstream, so map iteration here would break replayability.
func (a *armState) complete(ok bool) {
	keys := make([]string, 0, len(a.done))
	for k := range a.done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a.done[k](ok)
	}
	a.done = map[string]func(bool){}
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
func (c *Controller) sendFor(p *ctlState, cmd *cdpi.Command, done func(bool)) {
	if c.cmdDeaf[p.replica] {
		c.obsm.cmdDeafDrops.Inc()
		c.Obs.Rec.Event("cmd-deaf-drop", "replica="+p.replica)
		return
	}
	c.obsm.dispatches.Inc()
	c.Frontend.Send(cmd, done)
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
	nodes := []string{li.NodeA, li.NodeB}
	tte := c.Frontend.PickTTE(nodes)
	arm := &armState{
		li:      li,
		armed:   map[string]bool{},
		done:    map[string]func(bool){},
		attempt: attempt,
	}
	p.arms[li.Link] = arm
	if attempt == 1 {
		p.Intents.MarkCommanded(li.Link, now)
	} else {
		p.Intents.MarkRetry(li.Link, now)
	}
	p.Journal.RecordLink(li)
	c.Log.Appendf(now, explain.EvCommand, li.Link.String(),
		"link-establish attempt %d tte=%.0f", attempt, tte)
	for _, node := range nodes {
		cmd := &cdpi.Command{
			Node: node, Kind: cdpi.KindLinkEstablish,
			TTE: tte, Payload: &linkPayload{intent: li},
			Epoch: p.epoch,
		}
		c.sendFor(p, cmd, nil)
	}
	// Give-up timeout: if the link is not up (or being attempted)
	// well after the TTE plus the slowest acquisition, count the
	// attempt as failed and retry or abandon.
	wait := (tte - now) + 300
	arm.timeout = c.Eng.After(wait, func() { c.armTimeout(li) })
}

// armTimeout fires when an establishment attempt went nowhere. The
// owning process is re-resolved by intent pointer at fire time: a
// promotion swaps the acting state wholesale, so a closure must never
// capture a process reference at dispatch time.
func (c *Controller) armTimeout(li *intent.LinkIntent) {
	p, arm := c.armOwner(li)
	if arm == nil {
		return
	}
	if l, live := c.Fabric.Get(li.Link); live {
		if l.Up() {
			return // established; OnUp already handled it
		}
		// Still slewing/acquiring: give the radios more time rather
		// than declaring failure under them.
		arm.timeout = c.Eng.After(120, func() { c.armTimeout(li) })
		return
	}
	c.finishAttempt(p, li.Link, false)
}

// enact is every node agent's Enactor: it executes CDPI commands
// against the node's radios and forwarding tables.
func (c *Controller) enact(node string, cmd *cdpi.Command, done func(bool)) {
	switch p := cmd.Payload.(type) {
	case *linkPayload:
		switch cmd.Kind {
		case cdpi.KindLinkEstablish:
			c.enactEstablish(node, p.intent, done)
		case cdpi.KindLinkWithdraw:
			c.enactWithdraw(node, p.intent, done)
		default:
			done(false)
		}
	case *routePayload:
		if p.nextHop == "" {
			c.Data.RemoveEntry(node, p.routeID, p.gen)
		} else {
			c.Data.InstallEntry(node, p.routeID, p.nextHop, p.gen)
			c.checkRouteProgrammed(p.routeID)
		}
		done(true)
	default:
		// Drains and other node-level commands succeed trivially.
		done(true)
	}
}

// enactEstablish arms one endpoint; when both endpoints are armed the
// radios begin the slew/search sequence.
func (c *Controller) enactEstablish(node string, li *intent.LinkIntent, done func(bool)) {
	p, arm := c.armOwner(li)
	if arm == nil {
		// The intent was superseded (withdrawn/failed) — or its
		// issuing process died — before this command arrived.
		done(false)
		return
	}
	arm.armed[node] = true
	arm.done[node] = done
	if !arm.armed[li.NodeA] || !arm.armed[li.NodeB] {
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
			c.finishAttempt(p, li.Link, true)
		}
		return // still installing: OnUp/OnDown will resolve it
	}
	xa, xb := c.findXcvr(li.XA), c.findXcvr(li.XB)
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

// enactWithdraw drops the link from one endpoint (first enactment
// wins; the second is a no-op).
func (c *Controller) enactWithdraw(node string, li *intent.LinkIntent, done func(bool)) {
	c.Fabric.Withdraw(li.Link) // no-op if already gone
	done(true)
}

// commandWithdraw sends the teardown commands — the *predictive*
// path: a planned withdrawal the network can route around before the
// physics force the issue.
func (c *Controller) commandWithdraw(p *ctlState, li *intent.LinkIntent) {
	now := c.Eng.Now()
	c.Log.Append(now, explain.EvCommand, li.Link.String(), "link-withdraw")
	// Cancel any in-flight establishment.
	if arm, ok := p.arms[li.Link]; ok {
		arm.timeout.Cancel()
		delete(p.arms, li.Link)
	}
	tte := c.Frontend.PickTTE([]string{li.NodeA, li.NodeB})
	for _, node := range []string{li.NodeA, li.NodeB} {
		cmd := &cdpi.Command{
			Node: node, Kind: cdpi.KindLinkWithdraw,
			TTE: tte, Payload: &linkPayload{intent: li},
			Epoch: p.epoch,
		}
		c.sendFor(p, cmd, nil)
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
	c.Data.DeclareRoute(&dataplane.Route{ID: ri.ID, Path: ri.Path, Generation: ri.Generation})
	p.Journal.RecordRoute(ri)
	c.Log.Appendf(c.Eng.Now(), explain.EvRouteIntent, ri.ID, "program gen %d path %v", ri.Generation, ri.Path)
	for i := 0; i < len(ri.Path)-1; i++ {
		node, next := ri.Path[i], ri.Path[i+1]
		tte := c.Frontend.PickTTE([]string{node})
		if ri.Generation > 1 {
			tte += c.Eng.RNG("actuation").Float64() * routeStaggerS
		}
		cmd := &cdpi.Command{
			Node: node, Kind: cdpi.KindRouteUpdate,
			TTE:     tte,
			Payload: &routePayload{routeID: ri.ID, nextHop: next, gen: ri.Generation, path: ri.Path},
			Epoch:   p.epoch,
		}
		c.sendFor(p, cmd, nil)
	}
}

// commandRouteRemoval withdraws a route's entries.
func (c *Controller) commandRouteRemoval(p *ctlState, ri *intent.RouteIntent) {
	p.Journal.DropRoute(ri.ID)
	c.Log.Appendf(c.Eng.Now(), explain.EvRouteIntent, ri.ID, "remove gen %d", ri.Generation)
	for i := 0; i < len(ri.Path)-1; i++ {
		node := ri.Path[i]
		cmd := &cdpi.Command{
			Node: node, Kind: cdpi.KindRouteUpdate,
			Payload: &routePayload{routeID: ri.ID, nextHop: "", gen: ri.Generation},
			Epoch:   p.epoch,
		}
		c.sendFor(p, cmd, nil)
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
	for _, ri := range c.Intents.ActiveRoutes() {
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
			cmd := &cdpi.Command{
				Node: node, Kind: cdpi.KindRouteUpdate,
				TTE:     c.Frontend.PickTTE([]string{node}),
				Payload: &routePayload{routeID: ri.ID, nextHop: next, gen: ri.Generation, path: ri.Path},
				Epoch:   c.epoch,
			}
			c.sendFor(&c.ctlState, cmd, nil)
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
	if ok {
		return
	}
	li, active := p.Intents.ActiveLink(id)
	if !active {
		return
	}
	if arm.attempt >= maxEstablishAttempts {
		p.Intents.MarkFailed(id, "acquire-failed", c.Eng.Now())
		p.Journal.DropLink(id)
		c.Log.Append(c.Eng.Now(), explain.EvLinkState, id.String(),
			fmt.Sprintf("abandoned after %d attempts", arm.attempt))
		return
	}
	// Retry at once — "since Loon's TS-SDN lacked a feedback loop and
	// relied on modeled data for network planning, links were retried
	// repeatedly."
	c.commandEstablish(p, li, arm.attempt+1)
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
		// Complete the arm state successfully.
		if arm, ok := p.arms[l.ID]; ok {
			arm.complete(true)
			arm.timeout.Cancel()
			delete(p.arms, l.ID)
		}
	}
	c.Log.Append(now, explain.EvLinkState, l.ID.String(), "established")
	// Fig. 10: compare the radios' measurement with the model's
	// expectation for B2B links. A byzantine endpoint inflates its
	// reported margin; the calibration sample's plausibility bound is
	// what keeps the lie out of the distribution.
	if !l.IsB2G() {
		if rep := c.Evaluator.EvaluatePair(l.XA, l.XB, 0); rep != nil {
			measured := l.Measured.RxPowerDBm
			if c.byzantine[l.XA.Node.ID] || c.byzantine[l.XB.Node.ID] {
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
	c.Log.Append(now, explain.EvLinkState, l.ID.String(), "down: "+r.String())
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

// findXcvr locates a transceiver by ID on the current fleet.
func (c *Controller) findXcvr(id string) *platform.Transceiver {
	for _, n := range c.Fleet.Nodes() {
		for _, x := range n.Xcvrs {
			if x.ID == id {
				return x
			}
		}
	}
	return nil
}
