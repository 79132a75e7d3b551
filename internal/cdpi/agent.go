package cdpi

import (
	"minkowski/internal/geo"
	"minkowski/internal/sim"
)

// Hold is an accepted command held to its TTE and then enacted, a row
// of the frontend's hold table. Its one queued event, fire (bound when
// the row is made), runs the agent's enact function at the TTE, which
// then owns the row until it calls Done: at once, or minutes later
// for a link-establish, whose success means the link came up. A Hold
// never completed is dropped like an agent that never answers.
type Hold struct {
	// Cmd is the command as the agent received it.
	Cmd   Command
	agent *Agent
	fire  func()
}

// Done reports the command's result over the fastest available
// channel and frees the row; h must not be used again.
func (h *Hold) Done(ok bool) {
	a := h.agent
	a.respond(&h.Cmd, ok)
	a.frontend.freeHold(h)
}

// Agent is the SDN agent on one node: it receives commands over any
// channel, holds them to their TTE, enacts them, and reports
// responses over the fastest available channel. It also maintains the
// node's in-band connection to the frontend (heartbeats + the
// connect event that powers the side channel).
type Agent struct {
	// Index is the node's place in the mesh's IDs table.
	Index int32

	eng      *sim.Engine
	frontend *Frontend
	// enact executes a held command on the node (the core controller
	// wires it to the radio fabric and data-plane state).
	enact func(h *Hold)

	// connected tracks the agent's own view of in-band connectivity.
	connected bool
	// stopped ends the maintenance loops (node left, or agent
	// rebooted and replaced by a fresh instance).
	stopped bool
	// seen deduplicates retried commands by the ID each arrived with
	// (ID → true).
	seen map[uint64]bool
	// Enacted counts executed commands.
	Enacted int
	// LateSyncEnactments counts sync-required commands the agent
	// executed strictly after their TTE — an invariant violation (the
	// receive guard must have dropped them). Always 0 in a correct run.
	LateSyncEnactments int
	// highestEpoch is the largest fencing epoch seen on any command
	// (the fencing reference). It only ratchets upward; an agent reboot
	// forgets it, exactly like a real agent losing process state.
	highestEpoch uint64
	// maxEnactedEpoch is the largest epoch this agent has ENACTED,
	// kept separately so epoch monotonicity of enactments is checkable.
	maxEnactedEpoch uint64
	// fencingDisabled turns the stale-epoch fence off (the pre-fix
	// split-brain behaviour the chaos search demonstrates).
	fencingDisabled bool
	// StaleEpochRejections counts commands dropped because they carried
	// an epoch below the highest seen — a deposed primary's dispatches
	// bouncing off the fence.
	StaleEpochRejections int
	// StaleEpochAccepts counts stale-epoch commands the agent enacted
	// anyway (only possible with fencing disabled). Always 0 in a
	// correct run.
	StaleEpochAccepts int
	// EpochRegressions counts enactments whose epoch was below an
	// already-enacted epoch — the split-brain double-enactment
	// signature. Always 0 in a correct run.
	EpochRegressions int
	// StateReport, when set, is sampled at each heartbeat and carried
	// to the frontend as the node's self-reported state (position
	// telemetry). A byzantine node's report lies.
	StateReport func() geo.LLA
	// minSyncSlackS is the smallest arrival headroom (TTE − arrival
	// time, seconds) observed on any ACCEPTED sync-required command —
	// the continuous near-miss signal behind the late-sync-enactment
	// invariant: a run whose worst slack approached zero almost lost a
	// command to the receive guard. hasSyncSlack marks it valid.
	minSyncSlackS float64
	hasSyncSlack  bool
}

// AgentConfig tunes agent behaviour.
type AgentConfig struct {
	// HeartbeatIntervalS is the in-band heartbeat period.
	HeartbeatIntervalS float64
	// ConnCheckIntervalS is how often the agent probes its own mesh
	// connectivity (cheap local check; 1 s in production, coarser in
	// long simulations).
	ConnCheckIntervalS float64
	// DisableEpochFencing makes agents enact stale-epoch commands
	// instead of rejecting them — the pre-fix compat knob chaos-search
	// repros use to demonstrate split-brain double-enactment.
	DisableEpochFencing bool
}

// DefaultAgentConfig returns production-like cadences.
func DefaultAgentConfig() AgentConfig {
	return AgentConfig{HeartbeatIntervalS: 5, ConnCheckIntervalS: 1}
}

// newAgent is created via Frontend.Register.
func newAgent(eng *sim.Engine, fe *Frontend, node int32, enact func(h *Hold), cfg AgentConfig) *Agent {
	a := &Agent{
		Index: node, eng: eng, frontend: fe, enact: enact,
		seen:            make(map[uint64]bool),
		fencingDisabled: cfg.DisableEpochFencing,
	}
	// Connectivity maintenance loop.
	eng.Every(cfg.ConnCheckIntervalS, func() bool {
		if a.stopped {
			return false
		}
		a.checkConnectivity()
		return true
	})
	eng.Every(cfg.HeartbeatIntervalS, func() bool {
		if a.stopped {
			return false
		}
		if a.connected {
			// Sample the report at transmit time: it is the node's
			// claim when the heartbeat left, not when it arrived.
			m := fe.newMsg(msgHeartbeat, a, nil, false)
			if a.StateReport != nil {
				m.pos, m.hasPos = a.StateReport(), true
			}
			a.sendUp(m, 48)
		}
		return true
	})
	return a
}

// sendUp transmits m from the agent toward the EC.
func (a *Agent) sendUp(m *msg, size int) {
	a.frontend.transmit(m, a.Index, !a.frontend.ib.SymmetricCompat, size)
}

// stop ends the maintenance loops; the agent object stays valid for
// inspecting counters but sends nothing further.
func (a *Agent) stop() { a.stopped = true }

// checkConnectivity updates the agent's in-band state and fires the
// connect event on an off→on transition ("upon successfully
// connecting to the mesh, the balloon's SDN agent would immediately
// establish an in-band connection to the TS-SDN").
func (a *Agent) checkConnectivity() {
	// The agent's notion of "connected" is whether IT can reach the
	// EC: heartbeats and responses travel the up direction, so a dead
	// uplink means disconnected even if downstream commands still land.
	now := a.frontend.ib.ConnectedUp(a.Index)
	if now && !a.connected {
		a.connected = true
		a.sendUp(a.frontend.newMsg(msgConnect, a, nil, false), 96)
	} else if !now && a.connected {
		a.connected = false
	}
}

// receive handles a command arriving over some channel.
func (a *Agent) receive(cmd *Command, via Channel) {
	if a.stopped {
		return // a rebooted agent's predecessor enacts nothing
	}
	if a.seen[cmd.ID] {
		// Duplicate of a retried command already handled.
		return
	}
	a.seen[cmd.ID] = true
	now := a.eng.Now()
	if cmd.TTE > 0 && now > cmd.TTE && cmd.Kind.RequiresSync() {
		// Arrived after its enactment time: the peer has already
		// given up searching; executing now is useless. Drop and let
		// the controller's timeout retry. (One of the paper's §4.2
		// challenges.)
		return
	}
	if cmd.Epoch > 0 {
		if cmd.Epoch < a.highestEpoch && !a.fencingDisabled {
			// Fence: the issuer has been deposed — a newer primary's
			// epoch has already reached this agent.
			a.StaleEpochRejections++
			return
		}
		if cmd.Epoch > a.highestEpoch {
			a.highestEpoch = cmd.Epoch
		}
	}
	if cmd.TTE > 0 && cmd.Kind.RequiresSync() {
		// Accepted sync command: record how close its arrival came to
		// the TTE boundary (the receive guard above drops the ones that
		// actually crossed it).
		if slack := cmd.TTE - now; !a.hasSyncSlack || slack < a.minSyncSlackS {
			a.minSyncSlackS = slack
			a.hasSyncSlack = true
		}
	}
	enactAt := now
	if cmd.TTE > enactAt {
		enactAt = cmd.TTE
	}
	h := a.frontend.newHold()
	h.Cmd, h.agent = *cmd, a
	a.eng.At(enactAt, h.fire)
}

// enactHeld runs at a held command's TTE: it enacts the command unless
// the agent stopped or a higher epoch arrived meanwhile.
func (h *Hold) enactHeld() {
	a, cmd := h.agent, &h.Cmd
	if a.stopped {
		a.frontend.freeHold(h) // rebooted while holding the command to its TTE
		return
	}
	if cmd.TTE > 0 && cmd.Kind.RequiresSync() && a.eng.Now() > cmd.TTE {
		// Should be unreachable: the receive guard drops late sync
		// commands and enactAt is clamped to the TTE. Counting it
		// (rather than silently enacting) turns the §4.2 sync
		// discipline into a checkable invariant.
		a.LateSyncEnactments++
	}
	if cmd.Epoch > 0 && cmd.Epoch < a.highestEpoch {
		// A higher epoch arrived while this command was held to its
		// TTE: the issuer was deposed mid-hold. The fence applies at
		// enact time too, not just at receive.
		if !a.fencingDisabled {
			a.StaleEpochRejections++
			a.frontend.freeHold(h)
			return
		}
		a.StaleEpochAccepts++
	}
	if cmd.Epoch > 0 {
		if cmd.Epoch < a.maxEnactedEpoch {
			a.EpochRegressions++
		} else {
			a.maxEnactedEpoch = cmd.Epoch
		}
	}
	a.Enacted++
	a.enact(h)
}

// respond reports a command result over the fastest available
// channel.
func (a *Agent) respond(cmd *Command, ok bool) {
	if a.connected {
		a.sendUp(a.frontend.newMsg(msgResponse, a, cmd, ok), 64)
		return
	}
	a.respondSatcom(cmd, ok)
}

// respondSatcom sends the response over the satellite path (modelled
// as an uplink message with provider latency).
func (a *Agent) respondSatcom(cmd *Command, ok bool) {
	// The uplink shares the provider latency model; draw one.
	p := a.frontend.satProviderForResponse()
	lat := p.DrawOneWay(a.eng.RNG("satcom-up"))
	m := a.frontend.newMsg(msgResponseSat, a, cmd, ok)
	m.node = a.Index
	a.eng.After(lat, m.arrive)
}
