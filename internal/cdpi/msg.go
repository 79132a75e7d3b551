package cdpi

import "minkowski/internal/geo"

// msgKind says what an in-flight message carries and its arrival does.
type msgKind uint8

const (
	msgHeartbeat   msgKind = iota // agent → EC, with the sampled state report
	msgConnect                    // agent → EC: the in-band side channel
	msgCommand                    // EC → agent in-band
	msgCommandSat                 // EC → agent over satcom
	msgResponse                   // agent → EC in-band, else over satcom
	msgResponseSat                // agent → EC over satcom
)

// msg is an in-flight message, a row of the frontend's message table.
// Its one event frees the row: arrive (bound when the row is made), or
// for a command over satcom the gateway's delivery or drop, which the
// row rides as the satcom message's payload. agent is the sender: a
// heartbeat in flight across RebootAgent reaches the stopped agent,
// never its replacement. node is the index of the node a message goes
// to or comes from; cmd is the attempt's own copy.
type msg struct {
	kind                   msgKind
	node                   int32
	up, routed, ok, hasPos bool
	agent                  *Agent
	cmd                    Command
	pos                    geo.LLA
	arrive                 func()
}

// newMsg takes a message row off the free list, or makes one; it
// copies *cmd when there is one.
func (fe *Frontend) newMsg(kind msgKind, a *Agent, cmd *Command, ok bool) *msg {
	var m *msg
	if n := len(fe.freeMsgs); n > 0 {
		m, fe.freeMsgs = fe.freeMsgs[n-1], fe.freeMsgs[:n-1]
	} else {
		m = &msg{}
		m.arrive = func() { fe.arrive(m) }
	}
	m.kind, m.agent, m.ok = kind, a, ok
	if cmd != nil {
		m.cmd = *cmd
	}
	return m
}

// freeMsg returns a row no queued event can reach to the free list.
func (fe *Frontend) freeMsg(m *msg) {
	*m = msg{arrive: m.arrive}
	fe.freeMsgs = append(fe.freeMsgs, m)
}

// transmit sends m in-band toward node, or from it when up.
func (fe *Frontend) transmit(m *msg, node int32, up bool, size int) {
	var lat float64
	lat, m.routed = fe.ib.Transit(node, up, size)
	m.node, m.up = node, up
	fe.eng.After(lat, m.arrive)
}

// arrive delivers m, in-band only if its path existed when it left and
// still does. The row is freed first: what m does may send.
func (fe *Frontend) arrive(m *msg) {
	delivered := m.routed && fe.ib.route(m.node, m.up)
	r := *m
	fe.freeMsg(m)
	switch r.kind {
	case msgHeartbeat:
		if delivered && !r.agent.stopped && !fe.down {
			fe.heardFrom(r.node)
			if r.hasPos && fe.OnPositionReport != nil {
				fe.OnPositionReport(r.node, r.pos)
			}
		}
	case msgConnect:
		if delivered {
			fe.agentConnected(r.node)
		}
	case msgCommand: // a lost command surfaces as its response timeout
		if a := fe.node(r.node).agent; a != nil && delivered {
			a.receive(&r.cmd, ChannelInBand)
		}
	case msgCommandSat:
		if a := fe.node(r.node).agent; a != nil {
			a.receive(&r.cmd, ChannelSatcom)
		}
	case msgResponse:
		if delivered {
			fe.response(r.node, &r.cmd, r.ok, ChannelInBand)
		} else {
			r.agent.respondSatcom(&r.cmd, r.ok)
		}
	case msgResponseSat:
		fe.response(r.node, &r.cmd, r.ok, ChannelSatcom)
	}
}

// newHold takes a hold row off the free list, or makes one.
func (fe *Frontend) newHold() *Hold {
	if n := len(fe.freeHolds); n > 0 {
		h := fe.freeHolds[n-1]
		fe.freeHolds = fe.freeHolds[:n-1]
		return h
	}
	h := &Hold{}
	h.fire = h.enactHeld
	return h
}

// freeHold returns a hold no queued event can reach to the free list.
func (fe *Frontend) freeHold(h *Hold) {
	*h = Hold{fire: h.fire}
	fe.freeHolds = append(fe.freeHolds, h)
}
