package cdpi

import "minkowski/internal/geo"

// msgKind says what an in-flight message carries and its arrival does.
type msgKind uint8

const (
	msgHeartbeat   msgKind = iota // agent → EC, with the sampled state report
	msgConnect                    // agent → EC: the in-band side channel
	msgCommand                    // EC → agent
	msgResponse                   // agent → EC in-band, else over satcom
	msgResponseSat                // agent → EC over satcom
)

// msg is an in-flight message, a row of the frontend's message table.
// Its one event, arrive (bound when the row is made), frees the row.
// agent is the sender: a heartbeat in flight across RebootAgent
// reaches the stopped agent, never its replacement.
type msg struct {
	kind                   msgKind
	node                   string
	up, routed, ok, hasPos bool
	agent                  *Agent
	cmd                    *Command
	pos                    geo.LLA
	arrive                 func()
}

// newMsg takes a message row off the free list, or makes one.
func (fe *Frontend) newMsg(kind msgKind, a *Agent, cmd *Command, ok bool) *msg {
	var m *msg
	if n := len(fe.freeMsgs); n > 0 {
		m, fe.freeMsgs = fe.freeMsgs[n-1], fe.freeMsgs[:n-1]
	} else {
		m = &msg{}
		m.arrive = func() { fe.arrive(m) }
	}
	m.kind, m.agent, m.cmd, m.ok = kind, a, cmd, ok
	return m
}

// transmit sends m in-band toward node, or from it when up.
func (fe *Frontend) transmit(m *msg, node string, up bool, size int) {
	var lat float64
	lat, m.routed = fe.ib.Transit(node, up, size)
	m.node, m.up = node, up
	fe.eng.After(lat, m.arrive)
}

// arrive delivers m, in-band only if its path existed when it left and
// still does. The row is freed first: what m does may send.
func (fe *Frontend) arrive(m *msg) {
	delivered := m.kind != msgResponseSat && m.routed && fe.ib.routeTo(m.node, m.up)
	r := *m
	*m = msg{arrive: m.arrive}
	fe.freeMsgs = append(fe.freeMsgs, m)
	switch r.kind {
	case msgHeartbeat:
		if delivered && !r.agent.stopped && !fe.down {
			fe.lastHeard[r.node] = fe.eng.Now()
			if r.hasPos && fe.OnPositionReport != nil {
				fe.OnPositionReport(r.node, r.pos)
			}
		}
	case msgConnect:
		if delivered {
			fe.agentConnected(r.node)
		}
	case msgCommand: // a lost command surfaces as its response timeout
		if a, ok := fe.agents[r.node]; ok && delivered {
			a.receive(r.cmd, ChannelInBand)
		}
	case msgResponse:
		if delivered {
			fe.response(r.cmd, r.ok, ChannelInBand)
		} else {
			r.agent.respondSatcom(r.cmd, r.ok)
		}
	case msgResponseSat:
		fe.response(r.cmd, r.ok, ChannelSatcom)
	}
}
