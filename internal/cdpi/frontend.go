package cdpi

import (
	"slices"

	"minkowski/internal/backoff"
	"minkowski/internal/geo"
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
// (Fig. 9's enactment-time distributions).
type Enactment struct {
	Kind        Kind
	SubmittedAt float64
	CompletedAt float64
	Attempts    int
	OK          bool
	// Inferred marks completion learned via the in-band side channel
	// rather than an explicit response.
	Inferred bool
	Channel  Channel
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

	agents    map[string]*Agent
	agentCfg  AgentConfig
	lastHeard map[string]float64 // last in-band heartbeat per node

	nextCmd uint64
	// pending lists each node's live command rows by ascending ID.
	pending  map[string][]*pendingCmd
	freeCmds []*pendingCmd
	freeMsgs []*msg

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
	OnPositionReport func(node string, pos geo.LLA)
	// OnEnactment, when set, receives every completed command right
	// after it is appended to Enactments (and before the command's own
	// done callback runs, so observers see the completion first). The
	// controller wires this to the obs enact/ack instrumentation.
	OnEnactment func(Enactment)
}

// pendingCmd is a command-table row, from Send until its command
// completes or the frontend crashes; its closures are bound once.
// Completion and Crash cancel its timeout, but a queued re-dispatch
// (retrying) holds the row until it fires, a no-op if not live.
type pendingCmd struct {
	cmd                *Command
	submittedAt        float64
	attempts           int
	timer              sim.Timer
	done               func(ok bool)
	live, retrying     bool
	onTimeout, onRetry func()
}

// freeCmd returns a row no queued event can reach to the free list.
func (fe *Frontend) freeCmd(p *pendingCmd) {
	*p = pendingCmd{onTimeout: p.onTimeout, onRetry: p.onRetry}
	fe.freeCmds = append(fe.freeCmds, p)
}

// unlist takes a row off its node's pending list.
func (fe *Frontend) unlist(p *pendingCmd) {
	l := fe.pending[p.cmd.Node]
	i := slices.Index(l, p)
	fe.pending[p.cmd.Node] = slices.Delete(l, i, i+1)
}

// NewFrontend creates the frontend over a satcom gateway and an
// in-band path.
func NewFrontend(eng *sim.Engine, sat *satcom.Gateway, ib *InBand, cfg FrontendConfig, agentCfg AgentConfig) *Frontend {
	fe := &Frontend{
		cfg: cfg, eng: eng, sat: sat, ib: ib,
		agents:    make(map[string]*Agent),
		agentCfg:  agentCfg,
		lastHeard: make(map[string]float64),
		pending:   make(map[string][]*pendingCmd),
	}
	// Satcom deliveries are dispatched to agents by node ID.
	sat.Deliver = func(m *satcom.Message) {
		if cmd, ok := m.Payload.(*Command); ok {
			if a, ok := fe.agents[cmd.Node]; ok {
				a.receive(cmd, ChannelSatcom)
			}
		}
	}
	return fe
}

// Register creates (or returns) the SDN agent for a node.
func (fe *Frontend) Register(node string, enactor Enactor) *Agent {
	if a, ok := fe.agents[node]; ok {
		return a
	}
	a := newAgent(fe.eng, fe, node, enactor, fe.agentCfg)
	fe.agents[node] = a
	return a
}

// Unregister removes a node's agent (node left the network) and
// stops its maintenance loops.
func (fe *Frontend) Unregister(node string) {
	if a, ok := fe.agents[node]; ok {
		a.stop()
	}
	delete(fe.agents, node)
	delete(fe.lastHeard, node)
}

// RebootAgent models a node-side agent reboot with config wipe: the
// old agent stops, and a fresh one (empty dedupe state, disconnected)
// takes its place. Returns the new agent.
func (fe *Frontend) RebootAgent(node string) *Agent {
	a, ok := fe.agents[node]
	if !ok {
		return nil
	}
	fe.Unregister(node)
	return fe.Register(node, a.enactor)
}

// Crash models the controller process dying: every in-flight
// command's tracking state and the heartbeat world model are lost.
// Commands already in transit still reach their agents and may enact;
// their responses arrive at a frontend that no longer remembers them
// (the paper's §6 restart-safety hazard).
func (fe *Frontend) Crash() {
	fe.down = true
	// Map order is safe here: Timer.Cancel removes only its own event and
	// schedules nothing, so removal order shapes only the heap and the free
	// lists, never which events fire; pops follow (at, seq), a total order.
	for _, l := range fe.pending {
		for _, p := range l {
			p.timer.Cancel()
			p.live = false
			if !p.retrying {
				fe.freeCmd(p)
			}
		}
	}
	clear(fe.pending)
	clear(fe.lastHeard)
}

// Restart brings the frontend back; the heartbeat world model
// rebuilds from incoming telemetry within one heartbeat interval.
func (fe *Frontend) Restart() { fe.down = false }

// InBandUp reports the frontend's view of a node's in-band
// reachability (heartbeat freshness). The comparison is strict: a
// heartbeat exactly HeartbeatTimeoutS old is expired, so liveness at
// the boundary no longer depends on event ordering.
func (fe *Frontend) InBandUp(node string) bool {
	last, ok := fe.lastHeard[node]
	return ok && fe.eng.Now()-last < fe.cfg.HeartbeatTimeoutS
}

// agentConnected fires when a node's agent establishes its in-band
// connection — the side channel. Any pending sync-required command
// for that node is inferred successful ("this connection request
// would typically reach the CDPI frontend many seconds before the
// satcom response arrived").
func (fe *Frontend) agentConnected(node string) {
	if fe.down {
		return
	}
	fe.lastHeard[node] = fe.eng.Now()
	// In ascending ID, up to the last sent so far: a completion's done
	// callback may send the node more.
	last := fe.nextCmd
	for i, l := 0, fe.pending[node]; i < len(l) && l[i].cmd.ID <= last; l = fe.pending[node] {
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
	if allInBand || !fe.sat.Available() {
		return fe.eng.Now() + fe.cfg.TTEInBandS
	}
	return fe.eng.Now() + fe.cfg.TTESatcomS
}

// Send dispatches a command to its node, choosing the lowest-latency
// channel, tracking the response, and retrying on timeout with
// channel cycling. done (optional) fires once with the final result.
func (fe *Frontend) Send(cmd *Command, done func(ok bool)) uint64 {
	if fe.down {
		return 0 // crashed frontend accepts nothing
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
	p.cmd, p.submittedAt, p.attempts, p.done, p.live = cmd, fe.eng.Now(), 1, done, true
	fe.pending[cmd.Node] = append(fe.pending[cmd.Node], p)
	fe.dispatch(p)
	return cmd.ID
}

// dispatch transmits one attempt and arms its timeout.
func (fe *Frontend) dispatch(p *pendingCmd) {
	cmd := p.cmd
	useInBand := fe.InBandUp(cmd.Node)
	if cmd.Kind.RequiresInBand() && !useInBand {
		// Cannot go over satcom; wait a beat and retry (the node may
		// come in-band).
		fe.armTimeout(p, fe.cfg.TimeoutFastS)
		return
	}
	if useInBand {
		fe.transmit(fe.newMsg(msgCommand, nil, cmd, false), cmd.Node, false, cmd.Kind.WireBytes())
	} else {
		fe.sat.Send(&satcom.Message{
			Dest: cmd.Node, Size: cmd.Kind.WireBytes(),
			TTE:            cmd.TTE,
			RequiresInBand: cmd.Kind.RequiresInBand(),
			Payload:        cmd,
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
	// the row to the end of its node's list.
	fe.nextCmd++
	fresh := *p.cmd
	fresh.ID = fe.nextCmd
	fresh.Attempt = p.attempts
	fe.unlist(p)
	p.cmd = &fresh
	fe.pending[fresh.Node] = append(fe.pending[fresh.Node], p)
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
		p.cmd.TTE = fe.PickTTE([]string{p.cmd.Node})
	}
	fe.dispatch(p)
}

// response handles an agent's explicit command response.
func (fe *Frontend) response(cmd *Command, ok bool, via Channel) {
	for _, p := range fe.pending[cmd.Node] {
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
		Attempts:    p.attempts,
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

// LateSyncEnactments sums the fleet's late-sync violation counters:
// sync-required commands any agent executed after their TTE. Always 0
// in a correct run (the chaos search's no-intent-after-expiry
// invariant).
func (fe *Frontend) LateSyncEnactments() int {
	total := 0
	for _, a := range fe.agents {
		total += a.LateSyncEnactments
	}
	return total
}

// StaleEpochRejections sums the fleet's fence hits: commands agents
// dropped because a newer primary's epoch had already reached them. A
// nonzero count during a controller partition is the fence WORKING —
// the deposed primary's dispatches bouncing off.
func (fe *Frontend) StaleEpochRejections() int {
	total := 0
	for _, a := range fe.agents {
		total += a.StaleEpochRejections
	}
	return total
}

// StaleEpochAccepts sums stale-epoch commands agents enacted anyway
// (only possible with fencing disabled). Always 0 in a correct run —
// the no-stale-epoch-acceptance invariant.
func (fe *Frontend) StaleEpochAccepts() int {
	total := 0
	for _, a := range fe.agents {
		total += a.StaleEpochAccepts
	}
	return total
}

// EpochRegressions sums enactments whose epoch regressed below an
// epoch the same agent had already enacted. Always 0 in a correct run
// — the epoch-monotonicity invariant.
func (fe *Frontend) EpochRegressions() int {
	total := 0
	for _, a := range fe.agents {
		total += a.EpochRegressions
	}
	return total
}

// MinSyncSlack returns the fleet-wide minimum arrival headroom (TTE −
// arrival time, seconds) over all accepted sync-required commands, and
// whether any were observed. It is the continuous margin behind the
// late-sync-enactment invariant: the smaller the worst slack, the
// closer the run came to losing a sync command to the receive guard.
// (Minimum over the agent map is order-independent, so iteration order
// cannot leak into the result.)
func (fe *Frontend) MinSyncSlack() (float64, bool) {
	min, seen := 0.0, false
	for _, a := range fe.agents {
		if a.hasSyncSlack && (!seen || a.minSyncSlackS < min) {
			min = a.minSyncSlackS
			seen = true
		}
	}
	return min, seen
}
