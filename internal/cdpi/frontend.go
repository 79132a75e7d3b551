package cdpi

import (
	"math"
	"sort"

	"minkowski/internal/backoff"
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

	nextCmd    uint64
	nextIntent uint64
	pending    map[uint64]*pendingCmd

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
	OnPositionReport func(node string, report interface{})
	// OnEnactment, when set, receives every completed command right
	// after it is appended to Enactments (and before the command's own
	// done callback runs, so observers see the completion first). The
	// controller wires this to the obs enact/ack instrumentation.
	OnEnactment func(Enactment)
}

type pendingCmd struct {
	cmd         *Command
	submittedAt float64
	attempts    int
	timer       sim.Timer
	done        func(ok bool)
}

// NewFrontend creates the frontend over a satcom gateway and an
// in-band path.
func NewFrontend(eng *sim.Engine, sat *satcom.Gateway, ib *InBand, cfg FrontendConfig, agentCfg AgentConfig) *Frontend {
	fe := &Frontend{
		cfg: cfg, eng: eng, sat: sat, ib: ib,
		agents:    make(map[string]*Agent),
		agentCfg:  agentCfg,
		lastHeard: make(map[string]float64),
		pending:   make(map[uint64]*pendingCmd),
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
	enactor := a.enactor
	a.stop()
	delete(fe.agents, node)
	delete(fe.lastHeard, node)
	return fe.Register(node, enactor)
}

// Crash models the controller process dying: every in-flight
// command's tracking state and the heartbeat world model are lost.
// Commands already in transit still reach their agents and may enact;
// their responses arrive at a frontend that no longer remembers them
// (the paper's §6 restart-safety hazard).
func (fe *Frontend) Crash() {
	fe.down = true
	//minkowski:unordered-ok Timer.Cancel removes each timer's own event and schedules nothing; removal order shapes only the heap and its free list, and pops follow (at, seq), a total order
	for _, p := range fe.pending {
		p.timer.Cancel()
	}
	fe.pending = map[uint64]*pendingCmd{}
	fe.lastHeard = map[string]float64{}
}

// Restart brings the frontend back; the heartbeat world model
// rebuilds from incoming telemetry within one heartbeat interval.
func (fe *Frontend) Restart() { fe.down = false }

// Down reports whether the frontend is crashed.
func (fe *Frontend) Down() bool { return fe.down }

// InBandUp reports the frontend's view of a node's in-band
// reachability (heartbeat freshness). The comparison is strict: a
// heartbeat exactly HeartbeatTimeoutS old is expired, so liveness at
// the boundary no longer depends on event ordering.
func (fe *Frontend) InBandUp(node string) bool {
	last, ok := fe.lastHeard[node]
	return ok && fe.eng.Now()-last < fe.cfg.HeartbeatTimeoutS
}

// heartbeatReport is called by agents' delivered heartbeats, carrying
// the node's sampled state report (nil when the agent reports none).
func (fe *Frontend) heartbeatReport(node string, report interface{}) {
	if fe.down {
		return
	}
	fe.lastHeard[node] = fe.eng.Now()
	if report != nil && fe.OnPositionReport != nil {
		fe.OnPositionReport(node, report)
	}
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
	ids := make([]uint64, 0, len(fe.pending))
	for id := range fe.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := fe.pending[id]
		if p == nil || p.cmd.Node != node || !p.cmd.Kind.RequiresSync() {
			continue
		}
		fe.complete(p, true, ChannelInBand, true)
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

// NewIntentID allocates an intent-enactment grouping ID.
func (fe *Frontend) NewIntentID() uint64 {
	fe.nextIntent++
	return fe.nextIntent
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
	p := &pendingCmd{cmd: cmd, submittedAt: fe.eng.Now(), attempts: 1, done: done}
	fe.pending[cmd.ID] = p
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
		fe.ib.Send(cmd.Node, cmd.Kind.WireBytes(), func(ok bool) {
			if ok {
				if a, exists := fe.agents[cmd.Node]; exists {
					a.receive(cmd, ChannelInBand)
				}
			}
			// Failure surfaces via the response timeout.
		})
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
	p.timer = fe.eng.After(wait, func() { fe.timeout(p) })
}

// timeout handles a missing response: back off, cycle channels,
// re-TTE, resend.
func (fe *Frontend) timeout(p *pendingCmd) {
	if _, live := fe.pending[p.cmd.ID]; !live {
		return
	}
	fe.Timeouts++
	if fe.cfg.Retry.Exhausted(p.attempts) {
		fe.complete(p, false, ChannelSatcom, false)
		return
	}
	p.attempts++
	fe.Retries++
	// Retry is a NEW command ID so the agent doesn't dedupe it ("set
	// a new TTE, and retried the command").
	fe.nextCmd++
	old := p.cmd
	fresh := *old
	fresh.ID = fe.nextCmd
	fresh.Attempt = p.attempts
	delete(fe.pending, old.ID)
	p.cmd = &fresh
	fe.pending[fresh.ID] = p
	// Back off before the re-dispatch (unified capped-exponential
	// policy with seeded jitter), picking the fresh TTE at dispatch
	// time so it reflects channel state after the wait.
	delay := fe.cfg.Retry.Delay(p.attempts-1, fe.eng.RNG("cdpi-retry"))
	fe.eng.After(delay, func() {
		if _, live := fe.pending[fresh.ID]; !live {
			return // completed (e.g. side-channel inference) or crashed
		}
		if fresh.TTE > 0 {
			fresh.TTE = fe.PickTTE([]string{fresh.Node})
		}
		fe.dispatch(p)
	})
}

// response handles an agent's explicit command response.
func (fe *Frontend) response(cmd *Command, ok bool, via Channel) {
	p, live := fe.pending[cmd.ID]
	if !live {
		return // late response after inference or timeout
	}
	fe.complete(p, ok, via, false)
}

// complete finalizes a pending command.
func (fe *Frontend) complete(p *pendingCmd, ok bool, via Channel, inferred bool) {
	p.timer.Cancel()
	delete(fe.pending, p.cmd.ID)
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
}

// satProviderForResponse picks one of the gateway's providers for
// agent → controller responses (round-robin by command count). Only
// its latency model is used: responses ignore provider outages and
// rate limits (DESIGN.md §6).
func (fe *Frontend) satProviderForResponse() *satcom.Provider {
	ps := fe.sat.Providers()
	return ps[int(fe.nextCmd)%len(ps)]
}

// PendingCount returns in-flight commands (tests/telemetry).
func (fe *Frontend) PendingCount() int { return len(fe.pending) }

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

// SuccessfulEnactments filters the log by kind and success.
func (fe *Frontend) SuccessfulEnactments(k Kind) []Enactment {
	var out []Enactment
	for _, e := range fe.Enactments {
		if e.Kind == k && e.OK {
			out = append(out, e)
		}
	}
	return out
}

// quantile utility for tests.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
