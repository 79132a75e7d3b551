package core

import (
	"strconv"

	"minkowski/internal/explain"
	"minkowski/internal/intent"
	"minkowski/internal/radio"
	"minkowski/internal/solver"
)

// ctlState is one control process's working state: the live intent
// store, the (durable) dispatch journal, in-flight establishment arms,
// the last plan, and the fencing epoch stamped on every CDPI command
// the process issues. The controller embeds one ctlState as the acting
// process; during a controller partition a second instance lives on as
// the deposed rogue.
type ctlState struct {
	Intents *intent.Store
	Journal *Journal
	arms    map[radio.LinkID]*armState
	// lastPlan retains the most recent solver output for the scrubber
	// and last-known-good actuation.
	lastPlan *solver.Plan
	// epoch is the fencing epoch this process holds. Zero means
	// replication (and fencing) is disabled.
	epoch uint64
	// replica names the replica running this process ("ctl-a"/"ctl-b").
	replica string
}

// procs lists the live control processes in deterministic order:
// always the acting one, plus the rogue during a partition. Fabric
// callbacks fan out to every process because each keeps its own
// intent/journal view of the same physical events.
func (c *Controller) procs() []*ctlState {
	if c.rogue != nil {
		return []*ctlState{&c.ctlState, c.rogue}
	}
	return []*ctlState{&c.ctlState}
}

// armOwner resolves which process owns the arm this intent's commands
// and timers should act on. Arm timers and agent enactments are
// closures created before a promotion may have swapped the acting
// state wholesale — ownership must be re-derived at fire time, never
// captured at dispatch time. Intent-pointer identity wins; otherwise a
// same-link arm matches by ID (a late command from a superseded intent
// acts on whatever attempt currently owns the link — agents cannot
// tell two intents for one link apart, and processes are matched
// acting-first, deterministically).
func (c *Controller) armOwner(li *intent.LinkIntent) (*ctlState, *armState) {
	for _, p := range c.procs() {
		if arm, ok := p.arms[li.Link]; ok && arm.li == li {
			return p, arm
		}
	}
	for _, p := range c.procs() {
		if arm, ok := p.arms[li.Link]; ok {
			return p, arm
		}
	}
	return nil, nil
}

// procForIntent resolves which live process still considers li its
// active intent for this link (retry closures resolve their owner
// through this at fire time).
func (c *Controller) procForIntent(id radio.LinkID, li *intent.LinkIntent) *ctlState {
	for _, p := range c.procs() {
		if p == &c.ctlState && c.down {
			continue
		}
		if cur, ok := p.Intents.ActiveLink(id); ok && cur == li {
			return p
		}
	}
	return nil
}

// leaseTick is both replicas' renew/watch loop (every leaseCheckS).
// The acting primary renews its lease; the standby watches for a lapse
// and promotes itself. A partitioned primary cannot reach the lease
// service, so its lease silently expires — that is the entire
// deposition mechanism, no extra signalling.
func (c *Controller) leaseTick() {
	now := c.Eng.Now()
	if !c.down && !c.leasePartitioned {
		if !c.Lease.Renew(c.actingID, now) {
			// Lease lapsed but nobody claimed it (e.g. both replicas
			// were down): re-acquire at a fresh epoch.
			if ep, ok := c.Lease.Acquire(c.actingID, now); ok {
				c.epoch = ep
				c.Log.Appendf(now, explain.EvAnomaly, "controller",
					"primary %s re-acquired a lapsed lease at epoch %d", c.actingID, ep)
			}
		}
	}
	if !c.standbyDown {
		if _, _, held := c.Lease.Holder(now); !held {
			if ep, ok := c.Lease.Acquire(c.standbyID, now); ok {
				c.promote(ep)
			}
		}
	}
}

// promote makes the standby the acting primary at the given fencing
// epoch. Its journal is the replicated snapshot it was tailing;
// reconciliation from it is exactly the crash-restart path — readopt
// intents whose links are up, expire the rest. If the old primary is
// merely partitioned (still live), its entire control state lives on
// as a rogue process that keeps solving and dispatching at the stale
// epoch until the partition heals.
func (c *Controller) promote(epoch uint64) {
	now := c.Eng.Now()
	c.Journal.Sink = nil // the old stream endpoint is gone either way
	if !c.down {
		r := c.ctlState
		c.rogue = &r
		c.installRogueLoop()
		c.Log.Appendf(now, explain.EvAnomaly, "controller",
			"primary %s deposed while partitioned; continues as rogue at stale epoch %d",
			c.actingID, r.epoch)
	} else {
		// The primary process is dead; the promoting standby brings
		// the CDPI frontend back up.
		c.down = false
		c.Frontend.Restart()
	}
	j, _ := c.Repl.TakeStandbyJournal()
	c.ctlState = ctlState{
		Intents: intent.NewStore(),
		Journal: j,
		arms:    map[radio.LinkID]*armState{},
		epoch:   epoch,
		replica: c.standbyID,
	}
	c.actingID, c.standbyID = c.standbyID, c.actingID
	c.standbyDown = true // the promoted replica has no standby yet
	c.Promotions++
	c.Obs.Rec.SetReplica(c.actingID)
	c.Obs.Rec.Event("promote", "replica="+c.actingID+" epoch="+strconv.FormatUint(epoch, 10))
	c.Log.Appendf(now, explain.EvAnomaly, "controller",
		"standby %s promoted to primary at epoch %d (lease lapsed)", c.actingID, epoch)
	c.reconcileFromJournal("promoted")
}

// attachStandby (re)connects the replication stream: snapshot the
// acting journal into the standby seat and tap every future write.
func (c *Controller) attachStandby() {
	c.standbyDown = false
	c.Repl.Bootstrap(c.Journal, c.epoch)
	c.Journal.Sink = c.Repl
}

// FailPrimary kills only the acting primary process (the
// controller-failover fault): its process memory dies exactly as in a
// full crash, but the standby replica and the lease service survive,
// so recovery is a standby promotion once the lease lapses rather than
// a same-process restart. Journal-stream events already in flight
// still land on the standby. Without replication the fault degrades to
// a plain crash.
func (c *Controller) FailPrimary() {
	if c.Repl == nil {
		c.Crash()
		return
	}
	if c.down {
		return
	}
	c.down = true
	c.Crashes++
	c.dropActingMemory()
	c.Frontend.Crash()
	c.Obs.Rec.Event("fail-primary", "replica="+c.actingID)
	c.Log.Append(c.Eng.Now(), explain.EvAnomaly, "controller",
		"primary process died; standby replica alive, lease will lapse")
}

// RejoinStandby ends a controller-failover window: the replica that
// died returns to service. If a promoted primary is acting, the
// returnee becomes its warm standby (roles stay swapped — no
// fail-back); if nothing promoted (replication disabled, or the
// standby was down too), this degrades to the crash-restart path.
func (c *Controller) RejoinStandby() {
	if c.Repl == nil || c.down {
		c.Restart()
		return
	}
	c.attachStandby()
	c.Log.Appendf(c.Eng.Now(), explain.EvAnomaly, "controller",
		"replica %s rejoined as warm standby of %s (epoch %d)",
		c.standbyID, c.actingID, c.epoch)
}

// PartitionPrimary isolates the acting primary from the lease service
// and the replication stream (the controller-partition fault). The
// primary's process stays live: it keeps solving and dispatching to
// whatever it can reach, unaware its lease is lapsing — the
// split-brain setup that epoch fencing exists for. Without replication
// there is no standby to partition from, so the fault is a logged
// no-op.
func (c *Controller) PartitionPrimary() {
	if c.Repl == nil {
		c.Log.Append(c.Eng.Now(), explain.EvAnomaly, "controller",
			"controller-partition ignored: replication disabled")
		return
	}
	if c.down || c.leasePartitioned {
		return
	}
	c.leasePartitioned = true
	c.Repl.Disconnect()
	c.Log.Append(c.Eng.Now(), explain.EvAnomaly, "controller",
		"primary partitioned from lease service and standby (process still live)")
}

// HealPrimary ends a controller partition. If a standby promoted in
// the meantime, the deposed ex-leader finally reaches the lease
// service, observes the higher epoch, stands down — discarding its
// rogue state — and rejoins as the warm standby.
func (c *Controller) HealPrimary() {
	if c.Repl == nil || !c.leasePartitioned {
		return
	}
	c.leasePartitioned = false
	now := c.Eng.Now()
	if c.rogue != nil {
		dep, ep := c.rogue.replica, c.rogue.epoch
		c.discardRogue()
		c.Standdowns++
		c.Obs.Rec.Event("standdown", "replica="+dep+" stale_epoch="+strconv.FormatUint(ep, 10))
		c.Log.Appendf(now, explain.EvAnomaly, "controller",
			"partition healed: deposed primary %s stood down (stale epoch %d < %d) and rejoins as standby",
			dep, ep, c.epoch)
	} else {
		c.Log.Append(now, explain.EvAnomaly, "controller",
			"partition healed before the lease lapsed; primary resumes renewing")
	}
	if !c.down {
		c.attachStandby()
	}
}

// discardRogue cancels the rogue process's pending arm timers and
// drops its state.
func (c *Controller) discardRogue() {
	if c.rogue == nil {
		return
	}
	//minkowski:unordered-ok Timer.Cancel only marks each timer's own event; nothing is scheduled, so no tie-break order is set here
	for _, arm := range c.rogue.arms {
		if arm.timeout != nil {
			arm.timeout.Cancel()
		}
	}
	c.rogue = nil
}

// dropActingMemory discards the acting process's in-memory state (arm
// timers, intent store, last plan). The journal is durable storage and
// survives.
func (c *Controller) dropActingMemory() {
	//minkowski:unordered-ok Timer.Cancel only marks each timer's own event; nothing is scheduled, so no tie-break order is set here
	for _, arm := range c.arms {
		if arm.timeout != nil {
			arm.timeout.Cancel()
		}
	}
	c.arms = map[radio.LinkID]*armState{}
	c.Intents = intent.NewStore()
	c.lastPlan = nil
}

// installRogueLoop keeps the deposed ex-primary solving on its own
// cadence until it stands down.
func (c *Controller) installRogueLoop() {
	c.Eng.Every(c.Cfg.SolveIntervalS, func() bool {
		if c.rogue == nil {
			return false
		}
		c.rogueSolve()
		return true
	})
}

// rogueSolve is the deposed primary's solve cycle: same evaluator and
// solver (both are deterministic, and the simulation's event loop
// serializes their use — any internal worker fan-out is confined to
// one solve call — so sharing them is safe), its own intent store and
// stale-epoch dispatches. Modeling simplification: the rogue retains
// full dispatch reach over the CDPI — the worst case for split-brain,
// and exactly what agent-side epoch fencing must neutralize. (The
// opposite regime — a live replica with REDUCED dispatch reach — is
// probed separately by the replica-partition chaos kind, which deafens
// one replica's command path while leaving its lease and replication
// intact.)
func (c *Controller) rogueSolve() {
	r := c.rogue
	now := c.Eng.Now()
	c.RogueSolves++
	if c.solverDown {
		return
	}
	xcvrs := c.Fleet.Transceivers()
	if len(xcvrs) == 0 {
		return
	}
	graph := c.Evaluator.CandidateGraph(xcvrs, c.Cfg.PredictiveLeadS)
	existing := map[radio.LinkID]bool{}
	for _, l := range c.Fabric.UpLinks() {
		existing[l.ID] = true
	}
	in := solver.Input{
		Candidates: graph,
		Requests:   c.NBI.SolverRequests(),
		Existing:   existing,
		Gateways:   c.liveGateways(),
		Drained:    c.drainedWithChaos(),
		// No adaptive penalties: that feedback memory belongs to the
		// acting process, and double-decaying it here would perturb it.
	}
	plan := c.Solver.Solve(in)
	r.lastPlan = plan
	acts := r.Intents.Reconcile(plan, now)
	if !acts.Empty() {
		c.Log.Appendf(now, explain.EvAnomaly, "controller",
			"deposed primary %s (epoch %d) dispatched establish=%d withdraw=%d routes=%d at stale epoch",
			r.replica, r.epoch, len(acts.EstablishLinks), len(acts.WithdrawLinks), len(acts.ProgramRoutes))
	}
	c.actuateFor(r, acts)
}

// ActingReplica names the replica currently acting as primary.
func (c *Controller) ActingReplica() string { return c.actingID }

// Epoch returns the acting process's fencing epoch.
func (c *Controller) Epoch() uint64 { return c.epoch }

// StandbyDown reports whether the standby seat is currently empty.
func (c *Controller) StandbyDown() bool { return c.standbyDown }
