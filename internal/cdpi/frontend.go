package cdpi

import (
	"slices"

	"minkowski/internal/backoff"
	"minkowski/internal/geo"
	"minkowski/internal/platform"
	"minkowski/internal/satcom"
	"minkowski/internal/sim"
)

// FrontendConfig tunes the controller-side CDPI.
type FrontendConfig struct {
	// TTEInBandS is the enactment delay when every recipient is
	// reachable in-band ("a three-second delay was added").
	TTEInBandS float64
	// TTESatcomS is the delay when any recipient needs satcom: the
	// 95th percentile of one-way satcom delivery (the paper's 3m6s).
	TTESatcomS float64
	// HeartbeatTimeoutS marks a node not-in-band after silence.
	HeartbeatTimeoutS float64
	// TimeoutLinkS / TimeoutFastS are response timeouts beyond the
	// TTE for slow (link) and fast (route/drain) commands.
	TimeoutLinkS, TimeoutFastS float64
	// Retry is the unified channel-cycling retry policy (attempt cap,
	// capped exponential delay, seeded jitter).
	Retry backoff.Policy
}

// DefaultFrontendConfig matches the paper's published policy.
func DefaultFrontendConfig() FrontendConfig {
	return FrontendConfig{
		TTEInBandS:        3,
		TTESatcomS:        186, // 3m6s: p95 of one-way satcom delivery
		HeartbeatTimeoutS: 15,
		TimeoutLinkS:      240, // radio boot + search can take 2m30s
		TimeoutFastS:      30,
		Retry:             backoff.Default(),
	}
}

// Enactment records the outcome of one command for telemetry
// (Fig. 9's enactment-time distributions). The log keeps one per
// command for the whole run, so its fields pack into 24 bytes.
type Enactment struct {
	SubmittedAt float64
	CompletedAt float64
	Kind        Kind
	Channel     Channel
	OK          bool
	// Inferred marks completion learned via the in-band side channel
	// rather than an explicit response.
	Inferred bool
	Attempts int32
}

// Latency is the submission-to-completion time.
func (e Enactment) Latency() float64 { return e.CompletedAt - e.SubmittedAt }

// Frontend is the controller-side CDPI: channel tracking, TTE
// selection, dispatch, retries, and the in-band side channel.
type Frontend struct {
	cfg FrontendConfig
	eng *sim.Engine
	sat *satcom.Gateway
	ib  *InBand

	// nodes is the per-node state, by node index.
	nodes    []nodeState
	agentCfg AgentConfig

	nextCmd   uint64
	freeCmds  []*pendingCmd
	freeMsgs  []*msg
	freeHolds []*Hold

	// down marks the frontend process crashed: incoming telemetry is
	// not recorded and sends are refused until Restart.
	down bool

	// Enactments is the completed-command log (Fig. 9 input).
	Enactments []Enactment
	// Timeouts and Retries count failure handling.
	Timeouts, Retries int
	// OnPositionReport, when set, receives each heartbeat's sampled
	// state report (the node's self-claimed position). The controller
	// wires this to the byzantine-telemetry guard.
	OnPositionReport func(node int32, pos geo.LLA)
	// OnEnactment, when set, receives every completed command right
	// after it is appended to Enactments (and before the command's own
	// done callback runs, so observers see the completion first). The
	// controller wires this to the obs enact/ack instrumentation.
	OnEnactment func(Enactment)
}

// pendingCmd is a command-table row, from Send until its command
// completes or the frontend crashes; its closures are bound once.
// Completion and Crash cancel its timeout, but a queued re-dispatch
// (retrying) holds the row until it fires, a no-op if not live. cmd
// is the current attempt: a retry re-stamps it in place; node is its
// destination's index.
type pendingCmd struct {
	cmd                Command
	node               int32
	submittedAt        float64
	attempts           int
	timer              sim.Timer
	done               func(ok bool)
	live, retrying     bool
	onTimeout, onRetry func()
}

// nodeState is the frontend's state for one node: its agent (nil when
// none), its last in-band heartbeat (when heard), and its live command
// rows by ascending ID.
type nodeState struct {
	agent   *Agent
	heardAt float64
	heard   bool
	pending []*pendingCmd
}

// node returns the state of the node at index i, growing the table to
// hold it. The pointer is good until the table next grows.
func (fe *Frontend) node(i int32) *nodeState {
	fe.nodes = platform.Fit(fe.nodes, i)
	return &fe.nodes[i]
}

// freeCmd returns a row no queued event can reach to the free list.
func (fe *Frontend) freeCmd(p *pendingCmd) {
	*p = pendingCmd{onTimeout: p.onTimeout, onRetry: p.onRetry}
	fe.freeCmds = append(fe.freeCmds, p)
}

// unlist takes a row off its node's pending list.
func (fe *Frontend) unlist(p *pendingCmd) {
	n := &fe.nodes[p.node]
	i := slices.Index(n.pending, p)
	n.pending = slices.Delete(n.pending, i, i+1)
}

// NewFrontend creates the frontend over a satcom gateway and an
// in-band path.
func NewFrontend(eng *sim.Engine, sat *satcom.Gateway, ib *InBand, cfg FrontendConfig, agentCfg AgentConfig) *Frontend {
	fe := &Frontend{cfg: cfg, eng: eng, sat: sat, ib: ib, agentCfg: agentCfg}
	// A command over satcom rides its message row as the payload:
	// delivered, it reaches the node's agent; dropped, the row is freed
	// and the loss surfaces as the command's response timeout.
	sat.Deliver = func(m *satcom.Message) {
		if r, ok := m.Payload.(*msg); ok {
			fe.arrive(r)
		}
	}
	sat.OnDrop = func(m *satcom.Message, _ string) {
		if r, ok := m.Payload.(*msg); ok {
			fe.freeMsg(r)
		}
	}
	return fe
}

// Register creates (or returns) the SDN agent for the node at index
// node of the mesh's IDs table; enact executes the commands it holds
// to their TTE.
func (fe *Frontend) Register(node int32, enact func(h *Hold)) *Agent {
	n := fe.node(node)
	if n.agent == nil {
		n.agent = newAgent(fe.eng, fe, node, enact, fe.agentCfg)
	}
	return n.agent
}

// Unregister removes a node's agent (node left the network) and
// stops its maintenance loops.
func (fe *Frontend) Unregister(node int32) {
	n := fe.node(node)
	if n.agent != nil {
		n.agent.stop()
	}
	n.agent, n.heard = nil, false
}

// RebootAgent models a node-side agent reboot with config wipe: the
// old agent stops, and a fresh one (empty dedupe state, disconnected)
// takes its place. Returns the new agent.
func (fe *Frontend) RebootAgent(node int32) *Agent {
	a := fe.node(node).agent
	if a == nil {
		return nil
	}
	fe.Unregister(node)
	return fe.Register(node, a.enact)
}

// Crash models the controller process dying: every in-flight
// command's tracking state and the heartbeat world model are lost.
// Commands already in transit still reach their agents and may enact;
// their responses arrive at a frontend that no longer remembers them
// (the paper's §6 restart-safety hazard).
func (fe *Frontend) Crash() {
	fe.down = true
	for i := range fe.nodes {
		n := &fe.nodes[i]
		for _, p := range n.pending {
			p.timer.Cancel()
			p.live = false
			if !p.retrying {
				fe.freeCmd(p)
			}
		}
		n.pending, n.heard = n.pending[:0], false
	}
}

// Restart brings the frontend back; the heartbeat world model
// rebuilds from incoming telemetry within one heartbeat interval.
func (fe *Frontend) Restart() { fe.down = false }

// InBandUp reports the frontend's view of a node's in-band
// reachability (heartbeat freshness). The comparison is strict: a
// heartbeat exactly HeartbeatTimeoutS old is expired, so liveness at
// the boundary no longer depends on event ordering.
func (fe *Frontend) InBandUp(node string) bool {
	i, ok := fe.ib.Net.IDs().Lookup(node)
	return ok && fe.inBandUp(i)
}

// inBandUp is InBandUp by node index.
func (fe *Frontend) inBandUp(node int32) bool {
	n := fe.node(node)
	return n.heard && fe.eng.Now()-n.heardAt < fe.cfg.HeartbeatTimeoutS
}

// agentConnected fires when a node's agent establishes its in-band
// connection — the side channel. Any pending sync-required command
// for that node is inferred successful ("this connection request
// would typically reach the CDPI frontend many seconds before the
// satcom response arrived").
func (fe *Frontend) agentConnected(node int32) {
	if fe.down {
		return
	}
	fe.heardFrom(node)
	// In ascending ID, up to the last sent so far: a completion's done
	// callback may send the node more.
	last := fe.nextCmd
	for i, l := 0, fe.nodes[node].pending; i < len(l) && l[i].cmd.ID <= last; l = fe.nodes[node].pending {
		if p := l[i]; p.cmd.Kind.RequiresSync() {
			fe.complete(p, true, ChannelInBand, true) // takes p off the list
		} else {
			i++
		}
	}
}

// PickTTE chooses the enactment time for an intent spanning the given
// nodes: if every node is in-band, a short delay; otherwise the
// satcom p95 (§4.2: "it also had to consider the channels available
// to all other nodes receiving a command as part of the same intent
// enactment and set the TTE to the longest delay"). During a full
// satcom outage the frontend degrades to in-band-only TTE selection:
// padding for a channel that cannot deliver anything would only delay
// the nodes that ARE reachable.
func (fe *Frontend) PickTTE(nodes []string) float64 {
	allInBand := true
	for _, n := range nodes {
		if !fe.InBandUp(n) {
			allInBand = false
			break
		}
	}
	return fe.tte(allInBand)
}

// tte is PickTTE's choice once it knows whether every recipient is
// in-band.
func (fe *Frontend) tte(allInBand bool) float64 {
	if allInBand || !fe.sat.Available() {
		return fe.eng.Now() + fe.cfg.TTEInBandS
	}
	return fe.eng.Now() + fe.cfg.TTESatcomS
}

// Send dispatches a command to its node, choosing the lowest-latency
// channel, tracking the response, and retrying on timeout with
// channel cycling. done (optional) fires once with the final result.
// Returns the command's ID, 0 if the frontend is down or the mesh has
// never seen the node.
func (fe *Frontend) Send(cmd Command, done func(ok bool)) uint64 {
	node, known := fe.ib.Net.IDs().Lookup(cmd.Node)
	if fe.down || !known {
		return 0 // a crashed frontend accepts nothing; an unknown node has no row
	}
	fe.nextCmd++
	cmd.ID = fe.nextCmd
	cmd.Attempt = 1
	var p *pendingCmd // a free row, or a new one with its closures bound
	if n := len(fe.freeCmds); n > 0 {
		p, fe.freeCmds = fe.freeCmds[n-1], fe.freeCmds[:n-1]
	} else {
		p = &pendingCmd{}
		p.onTimeout = func() { fe.timeout(p) }
		p.onRetry = func() { fe.retry(p) }
	}
	p.node, p.cmd, p.submittedAt, p.attempts, p.done, p.live = node, cmd, fe.eng.Now(), 1, done, true
	n := fe.node(node)
	n.pending = append(n.pending, p)
	fe.dispatch(p)
	return cmd.ID
}

// dispatch transmits one attempt and arms its timeout.
func (fe *Frontend) dispatch(p *pendingCmd) {
	cmd := &p.cmd
	useInBand := fe.inBandUp(p.node)
	if cmd.Kind.RequiresInBand() && !useInBand {
		// Cannot go over satcom; wait a beat and retry (the node may
		// come in-band).
		fe.armTimeout(p, fe.cfg.TimeoutFastS)
		return
	}
	if useInBand {
		fe.transmit(fe.newMsg(msgCommand, nil, cmd, false), p.node, false, cmd.Kind.WireBytes())
	} else {
		m := fe.newMsg(msgCommandSat, nil, cmd, false)
		m.node = p.node
		fe.sat.Send(satcom.Message{
			Dest: cmd.Node, Size: cmd.Kind.WireBytes(),
			TTE:            cmd.TTE,
			RequiresInBand: cmd.Kind.RequiresInBand(),
			Payload:        m,
		})
	}
	timeout := fe.cfg.TimeoutFastS
	if cmd.Kind == KindLinkEstablish || cmd.Kind == KindLinkWithdraw {
		timeout = fe.cfg.TimeoutLinkS
	}
	// The timeout runs from the TTE (commands cannot complete before
	// enactment) plus the kind allowance.
	wait := timeout
	if cmd.TTE > fe.eng.Now() {
		wait += cmd.TTE - fe.eng.Now()
	}
	fe.armTimeout(p, wait)
}

func (fe *Frontend) armTimeout(p *pendingCmd, wait float64) {
	p.timer.Cancel()
	p.timer = fe.eng.After(wait, p.onTimeout)
}

// timeout handles a missing response: back off, cycle channels,
// re-TTE, resend.
func (fe *Frontend) timeout(p *pendingCmd) {
	fe.Timeouts++
	if fe.cfg.Retry.Exhausted(p.attempts) {
		fe.complete(p, false, ChannelSatcom, false)
		return
	}
	p.attempts++
	fe.Retries++
	// Retry is a NEW command ID so the agent doesn't dedupe it ("set
	// a new TTE, and retried the command"); the new, highest ID moves
	// the row to the end of its node's list. Earlier attempts in flight
	// or held carry their own copies.
	fe.unlist(p)
	fe.nextCmd++
	p.cmd.ID = fe.nextCmd
	p.cmd.Attempt = p.attempts
	fe.nodes[p.node].pending = append(fe.nodes[p.node].pending, p)
	// Back off before the re-dispatch (unified capped-exponential
	// policy with seeded jitter), picking the fresh TTE at dispatch
	// time so it reflects channel state after the wait.
	delay := fe.cfg.Retry.Delay(p.attempts-1, fe.eng.RNG("cdpi-retry"))
	p.retrying = true
	fe.eng.After(delay, p.onRetry)
}

// retry re-dispatches a retried command after its back-off.
func (fe *Frontend) retry(p *pendingCmd) {
	p.retrying = false
	if !p.live {
		fe.freeCmd(p) // completed (e.g. side-channel inference) or crashed
		return
	}
	if p.cmd.TTE > 0 {
		p.cmd.TTE = fe.tte(fe.inBandUp(p.node))
	}
	fe.dispatch(p)
}

// response handles an agent's explicit command response.
func (fe *Frontend) response(node int32, cmd *Command, ok bool, via Channel) {
	for _, p := range fe.nodes[node].pending {
		if p.cmd.ID == cmd.ID {
			fe.complete(p, ok, via, false)
			return
		}
	} // none: a late response after inference or timeout
}

// complete finalizes a pending command.
func (fe *Frontend) complete(p *pendingCmd, ok bool, via Channel, inferred bool) {
	p.timer.Cancel()
	fe.unlist(p)
	p.live = false
	e := Enactment{
		Kind:        p.cmd.Kind,
		SubmittedAt: p.submittedAt,
		CompletedAt: fe.eng.Now(),
		Attempts:    int32(p.attempts),
		OK:          ok,
		Inferred:    inferred,
		Channel:     via,
	}
	fe.Enactments = append(fe.Enactments, e)
	if fe.OnEnactment != nil {
		fe.OnEnactment(e)
	}
	if p.done != nil {
		p.done(ok)
	}
	if !p.retrying {
		fe.freeCmd(p)
	}
}

// satProviderForResponse picks one of the gateway's providers for
// agent → controller responses (round-robin by command count). Only
// its latency model is used: responses ignore provider outages and
// rate limits (DESIGN.md §6).
func (fe *Frontend) satProviderForResponse() *satcom.Provider {
	ps := fe.sat.Providers()
	return ps[int(fe.nextCmd)%len(ps)]
}

// sum totals one counter over the registered agents.
func (fe *Frontend) sum(count func(a *Agent) int) int {
	total := 0
	for _, n := range fe.nodes {
		if n.agent != nil {
			total += count(n.agent)
		}
	}
	return total
}

// heardFrom records an in-band heartbeat from the node now.
func (fe *Frontend) heardFrom(node int32) {
	n := fe.node(node)
	n.heardAt, n.heard = fe.eng.Now(), true
}

// LateSyncEnactments sums the fleet's late-sync violation counters:
// sync-required commands any agent executed after their TTE. Always 0
// in a correct run (the chaos search's no-intent-after-expiry
// invariant).
func (fe *Frontend) LateSyncEnactments() int {
	return fe.sum(func(a *Agent) int { return a.LateSyncEnactments })
}

// StaleEpochRejections sums the fleet's fence hits: commands agents
// dropped because a newer primary's epoch had already reached them. A
// nonzero count during a controller partition is the fence WORKING —
// the deposed primary's dispatches bouncing off.
func (fe *Frontend) StaleEpochRejections() int {
	return fe.sum(func(a *Agent) int { return a.StaleEpochRejections })
}

// StaleEpochAccepts sums stale-epoch commands agents enacted anyway
// (only possible with fencing disabled). Always 0 in a correct run —
// the no-stale-epoch-acceptance invariant.
func (fe *Frontend) StaleEpochAccepts() int {
	return fe.sum(func(a *Agent) int { return a.StaleEpochAccepts })
}

// EpochRegressions sums enactments whose epoch regressed below an
// epoch the same agent had already enacted. Always 0 in a correct run
// — the epoch-monotonicity invariant.
func (fe *Frontend) EpochRegressions() int {
	return fe.sum(func(a *Agent) int { return a.EpochRegressions })
}

// MinSyncSlack returns the fleet-wide minimum arrival headroom (TTE −
// arrival time, seconds) over all accepted sync-required commands, and
// whether any were observed. It is the continuous margin behind the
// late-sync-enactment invariant: the smaller the worst slack, the
// closer the run came to losing a sync command to the receive guard.
func (fe *Frontend) MinSyncSlack() (float64, bool) {
	min, seen := 0.0, false
	for _, n := range fe.nodes {
		if a := n.agent; a != nil && a.hasSyncSlack && (!seen || a.minSyncSlackS < min) {
			min = a.minSyncSlackS
			seen = true
		}
	}
	return min, seen
}
