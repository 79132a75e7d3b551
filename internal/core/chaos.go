package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"

	"minkowski/internal/chaos"
	"minkowski/internal/dataplane"
	"minkowski/internal/explain"
	"minkowski/internal/intent"
	"minkowski/internal/manet"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/telemetry"
)

// InstallChaos wires a fault scenario into this controller's world and
// schedules it on the shared engine. The injector's hooks map each
// fault class onto the subsystem it hits; the returned injector
// exposes the injection log for assertions.
func (c *Controller) InstallChaos(s chaos.Scenario) *chaos.Injector {
	inj := chaos.NewInjector(c.Eng, chaos.Hooks{
		ControllerCrash:    c.Crash,
		ControllerRestart:  c.Restart,
		ControllerFailover: c.FailPrimary,
		ControllerRejoin:   c.RejoinStandby,
		ControllerPartition: func(isolated bool) {
			if isolated {
				c.PartitionPrimary()
			} else {
				c.HealPrimary()
			}
		},
		SatcomOutage: func(provider string, down bool) {
			c.Sat.SetProviderDown(provider, down)
			c.Log.Appendf(c.Eng.Now(), explain.EvAnomaly, "satcom-"+provider,
				"provider outage=%v (gateway degrades to in-band-only TTE when none left)", down)
		},
		GatewayLoss: c.setGatewayDown,
		Partition: func(node string, isolated bool) {
			c.InBand.SetPartitioned(node, isolated)
			c.Log.Appendf(c.Eng.Now(), explain.EvAnomaly, node, "manet partition=%v", isolated)
		},
		AgentReboot: c.rebootAgent,
		TelemetryStale: func(stale bool) {
			c.gaugesFrozen = stale
			c.Log.Appendf(c.Eng.Now(), explain.EvAnomaly, "weather-telemetry",
				"gauge ingestion frozen=%v", stale)
		},
		SolverOutage: func(down bool) {
			c.solverDown = down
			c.Log.Appendf(c.Eng.Now(), explain.EvAnomaly, "solver", "outage=%v", down)
		},
		PartialPartition: func(from, to string, blocked bool) {
			c.Net.SetDeaf(from, to, blocked)
			// The mesh lost (or regained) a directed edge; let the
			// router converge around it.
			c.Router.TopologyChanged()
			c.Log.Appendf(c.Eng.Now(), explain.EvAnomaly, from+">"+to,
				"partial partition blocked=%v (one direction only)", blocked)
		},
		Byzantine: func(node string, active bool) {
			c.SetByzantine(node, active)
			c.Log.Appendf(c.Eng.Now(), explain.EvAnomaly, node,
				"byzantine telemetry active=%v (spoofed positions and margins)", active)
		},
		LeaseFlap: func(active bool) {
			if c.Lease == nil {
				c.Log.Append(c.Eng.Now(), explain.EvAnomaly, "lease-cell",
					"lease-flap ignored: replication disabled")
				return
			}
			c.Lease.SetFlapping(active)
			c.Log.Appendf(c.Eng.Now(), explain.EvAnomaly, "lease-cell",
				"lease cell flapping=%v (acquire/renew dropped; reads still served)", active)
		},
		ReplicaPartition: func(replica string, deaf bool) {
			if deaf {
				c.cmdDeaf[replica] = true
			} else {
				delete(c.cmdDeaf, replica)
			}
			c.Log.Appendf(c.Eng.Now(), explain.EvAnomaly, replica,
				"replica command path deaf=%v (lease/replication/telemetry unaffected)", deaf)
		},
	})
	inj.Schedule(s)
	return inj
}

// Crash models the TS-SDN process dying: everything held in process
// memory — intent store, actuation arm state, CDPI pending tracking,
// the heartbeat world model, the last plan — is gone. The journal (the
// durable dispatch record), the node agents, the physical fabric, and
// the data plane on the nodes all survive and keep running.
func (c *Controller) Crash() {
	if c.down {
		return
	}
	now := c.Eng.Now()
	c.down = true
	c.Crashes++
	c.dropActingMemory()
	c.Frontend.Crash()
	if c.Repl != nil {
		// A full controller-crash is a total control-plane outage
		// under replication too: the standby replica (and any rogue)
		// dies with the primary, and the standby's journal copy dies
		// as process memory. Restart brings the pair back.
		c.standbyDown = true
		c.Journal.Sink = nil
		c.Repl.Reset()
		c.discardRogue()
	}
	c.Obs.Rec.Event("crash", "")
	c.Log.Append(now, explain.EvAnomaly, "controller", "process crashed")
}

// Restart brings the controller back and reconciles intended-vs-actual
// from the journal before the next solve cycle runs (§6: "restarts of
// the TS-SDN controller... needed to resynchronize with the fleet
// rather than re-actuate it"). Under replication a restarting replica
// that finds a promoted primary already acting rejoins as its warm
// standby instead; a restarting pair re-acquires the lease at a fresh
// epoch and re-bootstraps the standby.
func (c *Controller) Restart() {
	if !c.down {
		if c.Repl != nil && c.standbyDown {
			c.attachStandby()
			c.Log.Appendf(c.Eng.Now(), explain.EvAnomaly, "controller",
				"returning replica %s rejoined as warm standby", c.standbyID)
		}
		return
	}
	c.down = false
	c.Frontend.Restart()
	c.Obs.Rec.Event("restart", "")
	if c.Lease != nil {
		if ep, ok := c.Lease.Acquire(c.actingID, c.Eng.Now()); ok {
			c.epoch = ep
		}
	}
	c.reconcileFromJournal("restarted")
	if c.Repl != nil {
		c.attachStandby()
	}
}

// Down reports whether the controller process is currently crashed.
func (c *Controller) Down() bool { return c.down }

// reconcileFromJournal rebuilds the intent store from the journal
// against observed fabric state (how labels the trigger in the log:
// "restarted" or "promoted"):
//
//   - a journaled link intent whose physical link is up is re-adopted
//     as Established — the work already happened; re-commanding it
//     would be a duplicate enactment;
//   - a journaled link intent with no up link is expired: its arm
//     state died with the old process, so the next solve re-wants the
//     link from scratch (and the actuation layer's adopt-existing
//     path absorbs any still-acquiring radios without a second
//     physical establish);
//   - journaled route intents are re-adopted wholesale, preserving
//     generations so reprograms stay monotonic against the forwarding
//     entries that survived on the nodes.
func (c *Controller) reconcileFromJournal(how string) {
	now := c.Eng.Now()
	readoptedLinks, expired := 0, 0
	for _, li := range c.Journal.Links() {
		l, ok := c.Fabric.Get(li.Link)
		if ok && l.Up() {
			cp := *li
			cp.State = intent.LinkEstablished
			if cp.EstablishedAt == 0 {
				cp.EstablishedAt = l.EstablishedAt
			}
			c.Intents.Adopt(&cp)
			c.Journal.RecordLink(&cp)
			readoptedLinks++
			continue
		}
		c.Journal.DropLink(li.Link)
		expired++
	}
	readoptedRoutes := 0
	for _, ri := range c.Journal.Routes() {
		cp := *ri
		cp.Path = append([]string(nil), ri.Path...)
		c.Intents.AdoptRoute(&cp)
		readoptedRoutes++
	}
	c.Readopted += readoptedLinks + readoptedRoutes
	c.ExpiredOnRestart += expired
	c.Obs.Rec.Event("journal-reconcile", "how="+how+
		" readopted="+strconv.Itoa(readoptedLinks+readoptedRoutes)+
		" expired="+strconv.Itoa(expired))
	c.Log.Appendf(now, explain.EvAnomaly, "controller",
		"%s; reconciled from journal: links readopted=%d expired=%d routes readopted=%d",
		how, readoptedLinks, expired, readoptedRoutes)
}

// setGatewayDown takes a ground-station site offline (or back): its
// radio links die, its wired EC entry point disappears, and the solver
// stops planning through it.
func (c *Controller) setGatewayDown(gs string, down bool) {
	if c.gwDown[gs] == down {
		return
	}
	if down {
		c.gwDown[gs] = true
		c.InBand.SetPartitioned(gs, true)
		c.Fabric.FailNode(gs, radio.ReasonPowerLoss)
		c.Data.FlushNode(gs)
	} else {
		delete(c.gwDown, gs)
		c.InBand.SetPartitioned(gs, false)
	}
	c.Log.Appendf(c.Eng.Now(), explain.EvAnomaly, gs, "gateway site down=%v", down)
}

// rebootAgent models a node-side SDN-agent reboot with config wipe:
// radio links drop, forwarding state is erased, and a fresh agent
// (empty dedupe memory, disconnected) replaces the old one. The
// actuation loop re-pushes whatever the node should hold.
func (c *Controller) rebootAgent(node string) {
	if a := c.Frontend.RebootAgent(node); a != nil {
		c.attachReporter(a) // the fresh agent reports like its predecessor
	}
	if n := c.nodeByID(node); n != nil {
		// Re-registration re-seeds the position-plausibility gate from
		// the controller's own model: a quarantined node must not
		// inherit its spoofed last-good fix (nor the quarantine flag)
		// across a reboot.
		c.PosGuard.Seed(node, n.Position(), c.Eng.Now())
	}
	c.Fabric.FailNode(node, radio.ReasonPowerLoss)
	c.Data.FlushNode(node)
	c.Log.Append(c.Eng.Now(), explain.EvAnomaly, node, "agent rebooted with config wipe")
}

// liveGateways filters chaos-lost sites out of the solver's gateway
// set.
func (c *Controller) liveGateways() []string {
	if len(c.gwDown) == 0 {
		return c.gateways
	}
	out := make([]string, 0, len(c.gateways))
	for _, g := range c.gateways {
		if !c.gwDown[g] {
			out = append(out, g)
		}
	}
	return out
}

// drainedWithChaos merges chaos-lost gateways into the solver's
// drain exclusions.
func (c *Controller) drainedWithChaos() map[string]bool {
	d := c.NBI.SolverExclusions()
	for g := range c.gwDown {
		d[g] = true
	}
	return d
}

// checkWeatherStaleness flips the fused weather model's Degraded mode
// when the controller's freshest input exceeds the staleness
// threshold — the gauge → forecast → climatology fallback chain with
// an explicit pessimism penalty, instead of silently evaluating links
// on dead data.
func (c *Controller) checkWeatherStaleness() {
	stale := c.WxModel.AgeSeconds() > weatherStaleAfterS
	if stale == c.WxModel.Degraded {
		return
	}
	c.WxModel.Degraded = stale
	if stale {
		c.Log.Append(c.Eng.Now(), explain.EvAnomaly, "weather-model",
			"inputs stale; degraded fallback chain active with pessimism penalty")
	} else {
		c.Log.Append(c.Eng.Now(), explain.EvAnomaly, "weather-model",
			"fresh inputs resumed; degraded mode cleared")
	}
}

// DataPlaneFrac returns the instantaneous fraction of in-service
// balloons whose programmed backhaul route is operable right now —
// the fine-grained availability signal the chaosavail figure samples
// through fault windows. NaN when nothing is in service.
func (c *Controller) DataPlaneFrac() float64 {
	links := dataplane.LinkCheckerFunc(c.Fabric.Adjacent)
	total, up := 0, 0
	for _, n := range c.Fleet.Nodes() {
		if !c.inService(n) {
			continue
		}
		total++
		if c.Data.Operable("backhaul/"+n.ID, links) {
			up++
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(up) / float64(total)
}

// ControlPlaneFrac returns the instantaneous fraction of in-service
// balloons with in-band control connectivity.
func (c *Controller) ControlPlaneFrac() float64 {
	total, up := 0, 0
	for _, n := range c.Fleet.Nodes() {
		if !c.inService(n) {
			continue
		}
		total++
		if c.InBand.Connected(n.ID) {
			up++
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(up) / float64(total)
}

// probeDelivery offers one synthetic end-to-end probe per in-service
// balloon's declared backhaul route and classifies it into the
// delivery meter (Cfg.DeliveryProbeS cadence):
//
//   - delivered: the programmed next-hop chain walks source →
//     destination over up, non-deaf fabric links;
//   - reachable: ground truth — BFS over the mesh (the fabric's
//     already-up links, deaf directions excluded) finds SOME path from
//     the balloon to a live gateway, and the programmed path itself is
//     not silenced by a deafened direction. A balloon with no up-link
//     path sits in a genuine topology partition; a walk that dies on a
//     deaf hop is a partition OF THE PATH that no in-model mechanism
//     (pre- or post-fix) can observe. Both are excused;
//   - controllable: the control plane could have repaired the route
//     (acting process up, solver up, its command path not deafened)
//     AND currently believes the route healthy — while any path edge
//     is known-broken (intent failed or still re-establishing) it is
//     already repairing, and the meter freezes rather than advances
//     the clock. The invariant indicts belief/reality divergence —
//     "everything looks healthy, traffic black-holes anyway" — not the
//     solver's pace at rebuilding sparse topology.
//
// Reachable-but-undelivered probes advance the route's outage clock
// only while controllable; the bounded-loss invariant fires when any
// clock outruns the grace window.
func (c *Controller) probeDelivery() {
	m := c.Delivery
	if m == nil {
		return
	}
	ctlUp := !c.down && !c.solverDown && !c.cmdDeaf[c.actingID]
	live := make(map[string]bool, len(c.gateways))
	for _, g := range c.liveGateways() {
		live[g] = true
	}
	for _, n := range c.Fleet.Nodes() {
		if n.Kind != platform.KindBalloon || !c.inService(n) {
			continue
		}
		rid := "backhaul/" + n.ID
		r, ok := c.Data.Route(rid)
		if !ok || len(r.Path) < 2 {
			// No route declared (yet): nothing offered, clock forgotten.
			m.Clear(rid)
			continue
		}
		delivered, deafHop := c.deliveryWalk(r)
		reachable := !deafHop && manet.ReachableAny(c.Net, n.ID, live)
		m.Record(rid, c.Cfg.DeliveryProbeS, delivered, reachable,
			ctlUp && c.routeBelievedHealthy(r))
	}
}

// routeBelievedHealthy reports whether the acting process's intent
// store says every edge of the route's declared path is an Established
// link — the controller's own claim that the route should be carrying
// traffic right now.
func (c *Controller) routeBelievedHealthy(r *dataplane.Route) bool {
	for i := 0; i+1 < len(r.Path); i++ {
		li, ok := c.Intents.ActiveLink(radio.MakeLinkID(r.Path[i], r.Path[i+1]))
		if !ok || li.State != intent.LinkEstablished {
			return false
		}
	}
	return true
}

// deliveryWalk follows a route's programmed next-hop entries from
// source to destination and reports whether a packet would arrive:
// every node on the chain must hold an entry, and every hop must ride
// an up fabric link that is not deafened in the travel direction.
// deafHop distinguishes a walk silenced by a deafened direction (a
// partition of the path, excused by the delivery meter) from a walk
// that died on missing entries, a down link, or a loop.
func (c *Controller) deliveryWalk(r *dataplane.Route) (delivered, deafHop bool) {
	cur, dst := r.Path[0], r.Path[len(r.Path)-1]
	for hops := 0; hops < 64; hops++ {
		if cur == dst {
			return true, false
		}
		nh, _, ok := c.Data.NextHopFor(cur, r.ID)
		if !ok {
			return false, false
		}
		if !c.Fabric.Adjacent(cur, nh) {
			return false, false
		}
		if c.Net.Deaf(cur, nh) {
			return false, true
		}
		cur = nh
	}
	return false, false // hop budget exhausted (loop) — not delivered
}

// JournalIntentMismatches cross-checks the acting process's durable
// journal against its live intent store (inv-intent-journal-
// consistency) and describes every divergence:
//
//   - a journaled link whose physical link is up must have a live
//     intent — otherwise a restart would re-adopt a link the acting
//     process no longer wants (journal leak);
//   - an Established link intent must be journaled — otherwise a
//     restart would forget (and re-actuate) work that already
//     happened, the exact duplicate-enactment hazard §6 reconciliation
//     exists to prevent.
//
// Only callable meaningfully while the process is up; during a crash
// the intent store is legitimately empty.
func (c *Controller) JournalIntentMismatches() []string {
	var out []string
	for _, li := range c.Journal.Links() {
		if l, ok := c.Fabric.Get(li.Link); !ok || !l.Up() {
			continue
		}
		if _, ok := c.Intents.ActiveLink(li.Link); !ok {
			out = append(out, fmt.Sprintf("journaled up link %s has no live intent", li.Link))
		}
	}
	for _, li := range c.Intents.ActiveLinks() {
		if li.State != intent.LinkEstablished {
			continue
		}
		if !c.Journal.HasLink(li.Link) {
			out = append(out, fmt.Sprintf("established intent %s is not journaled", li.Link))
		}
	}
	return out
}

// TelemetryDigest hashes the observable simulation outcome — event
// count, enactment log, fabric state, intent state, reachability
// ratios — into one value. Two runs of the same seeded scenario
// (chaos included) must produce identical digests; this is the §6
// determinism property the chaos harness must not break.
func (c *Controller) TelemetryDigest() uint64 {
	h := fnv.New64a()
	w := func(format string, args ...interface{}) { fmt.Fprintf(h, format, args...) }
	w("t=%.3f ev=%d\n", c.Eng.Now(), c.Eng.Processed)
	for _, e := range c.Frontend.Enactments {
		w("en %d %.3f %.3f %d %v %v %d\n",
			e.Kind, e.SubmittedAt, e.CompletedAt, e.Attempts, e.OK, e.Inferred, e.Channel)
	}
	for _, l := range c.Fabric.UpLinks() {
		w("up %s\n", l.ID)
	}
	for _, li := range c.Intents.ActiveLinks() {
		w("li %s %d %d\n", li.Link, li.State, li.Attempts)
	}
	for _, ri := range c.Intents.ActiveRoutes() {
		w("ri %s %d %v\n", ri.ID, ri.Generation, ri.Path)
	}
	w("hist=%d fab=%d solves=%d crashes=%d dup=%d readopt=%d expired=%d\n",
		len(c.Intents.History()), len(c.Fabric.History()), c.SolveRuns,
		c.Crashes, c.DuplicateEstablishes, c.Readopted, c.ExpiredOnRestart)
	w("reach l=%.6f c=%.6f d=%.6f\n",
		c.Reach.Ratio(telemetry.LayerLink),
		c.Reach.Ratio(telemetry.LayerControl),
		c.Reach.Ratio(telemetry.LayerData))
	if c.Lease != nil {
		w("repl acting=%s epoch=%d grants=%d renewals=%d flapdeny=%d promotions=%d standdowns=%d rogue=%d pub=%d app=%d drop=%d aj=%x sj=%x\n",
			c.actingID, c.epoch, len(c.Lease.Grants), c.Lease.Renewals, c.Lease.FlapDenials(),
			c.Promotions, c.Standdowns, c.RogueSolves,
			c.Repl.Published, c.Repl.Applied, c.Repl.DroppedDisconnected,
			c.Journal.Digest(), c.Repl.StandbyJournal().Digest())
	}
	w("fence rej=%d acc=%d regress=%d\n",
		c.Frontend.StaleEpochRejections(), c.Frontend.StaleEpochAccepts(),
		c.Frontend.EpochRegressions())
	if c.Delivery != nil {
		m := c.Delivery
		w("deliv inj=%d ok=%d drop=%d unreach=%d unctl=%d grace=%d lost=%d maxout=%.3f\n",
			m.Injected, m.Delivered, m.Dropped, m.DroppedUnreachable,
			m.DroppedUncontrollable, m.DroppedInGrace, m.LostBeyondGrace, m.MaxOutageS)
	}
	if len(c.cmdDeaf) > 0 || c.CmdDeafDrops() > 0 {
		deaf := make([]string, 0, len(c.cmdDeaf))
		for r := range c.cmdDeaf {
			deaf = append(deaf, r)
		}
		sort.Strings(deaf)
		w("cmddeaf drops=%d deaf=%v\n", c.CmdDeafDrops(), deaf)
	}
	return h.Sum64()
}
