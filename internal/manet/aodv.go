package manet

import (
	"minkowski/internal/sim"
)

// AODV is the classic on-demand distance-vector protocol [Perkins &
// Royer]: routes are discovered only when needed by flooding a Route
// Request (RREQ); the destination (or a node with a fresh route)
// unicasts a Route Reply (RREP) back along the reverse path; broken
// links trigger Route Errors (RERR) and re-discovery. Appendix D:
// AODV converged well and had lower overhead than DSDV because Loon
// nodes only need routes to a handful of SDN endpoints, not to every
// other balloon.
type AODV struct {
	eng *sim.Engine
	net Network
	cfg AODVConfig

	nodes map[string]*aodvNode
	stats Stats
	// interests are (src, dst) pairs the simulation keeps alive, in
	// registration order: each src re-discovers dst whenever its route
	// breaks. A slice, not a map: same-instant re-discoveries take
	// their loss draws in the order the sweep schedules them.
	interests [][2]string
}

// AODVConfig tunes the protocol.
type AODVConfig struct {
	// HelloIntervalS is the neighbor-sensing beacon period.
	HelloIntervalS float64
	// RouteLifetimeS expires unused routes.
	RouteLifetimeS float64
	// RediscoverBackoffS is the delay between a route break and the
	// next RREQ.
	RediscoverBackoffS float64
	// LossProb is per-hop control loss.
	LossProb float64
	// Message sizes (bytes, RFC 3561 formats).
	RREQBytes, RREPBytes, RERRBytes, HelloBytes int
}

// DefaultAODVConfig returns RFC-flavored defaults.
func DefaultAODVConfig() AODVConfig {
	return AODVConfig{
		HelloIntervalS:     1.0,
		RouteLifetimeS:     10.0,
		RediscoverBackoffS: 0.5,
		LossProb:           0.01,
		RREQBytes:          24, RREPBytes: 20, RERRBytes: 20, HelloBytes: 12,
	}
}

type aodvRoute struct {
	nextHop string
	seqno   uint64
	hops    int
	expires float64
}

type aodvNode struct {
	id     string
	seqno  uint64
	rreqID uint64
	routes map[string]*aodvRoute
	// seenRREQ suppresses duplicate flood processing: key origin,
	// value highest rreqID seen.
	seenRREQ map[string]uint64
	// pendingDiscovery marks destinations with an RREQ in flight.
	pendingDiscovery map[string]bool
}

// NewAODV creates the protocol.
func NewAODV(eng *sim.Engine, net Network, cfg AODVConfig) *AODV {
	return &AODV{
		eng: eng, net: net, cfg: cfg,
		nodes: make(map[string]*aodvNode),
	}
}

// Name implements Router.
func (a *AODV) Name() string { return "aodv" }

// Stats implements Router.
func (a *AODV) Stats() Stats { return a.stats }

func (a *AODV) node(id string) *aodvNode {
	n, ok := a.nodes[id]
	if !ok {
		n = &aodvNode{
			id:               id,
			routes:           make(map[string]*aodvRoute),
			seenRREQ:         make(map[string]uint64),
			pendingDiscovery: make(map[string]bool),
		}
		a.nodes[id] = n
	}
	return n
}

// Interest registers that src needs a persistent route to dst (e.g.
// a balloon's gRPC connection to an SDN endpoint). AODV maintains it:
// discovery now, re-discovery on break.
func (a *AODV) Interest(src, dst string) {
	a.interests = append(a.interests, [2]string{src, dst})
	a.discover(src, dst)
}

// Start implements Router: periodic hello beacons maintain neighbor
// liveness and expire broken routes; broken interests re-discover.
func (a *AODV) Start() {
	a.eng.Every(a.cfg.HelloIntervalS, func() bool {
		now := a.eng.Now()
		for _, id := range a.net.Nodes() {
			n := a.node(id)
			// Hello cost: one broadcast per node per interval.
			nbrs := a.net.Neighbors(id)
			a.stats.MessagesSent += int64(len(nbrs))
			a.stats.BytesSent += int64(len(nbrs) * a.cfg.HelloBytes)
			// Expire routes whose next hop is gone or lifetime passed.
			for dst, r := range n.routes {
				if now > r.expires || !a.net.Adjacent(id, r.nextHop) {
					delete(n.routes, dst)
					// RERR to interested upstreams (simplified: cost
					// accounting only; re-discovery is driven below).
					a.stats.MessagesSent++
					a.stats.BytesSent += int64(a.cfg.RERRBytes)
				}
			}
		}
		// Keep interests alive.
		for _, in := range a.interests {
			src, dst := in[0], in[1]
			n := a.node(src)
			if _, ok := n.routes[dst]; !ok && !n.pendingDiscovery[dst] {
				n.pendingDiscovery[dst] = true
				a.eng.After(a.cfg.RediscoverBackoffS, func() {
					a.node(src).pendingDiscovery[dst] = false
					a.discover(src, dst)
				})
			}
		}
		return true
	})
}

// discover floods an RREQ from src for dst.
func (a *AODV) discover(src, dst string) {
	n := a.node(src)
	n.rreqID++
	n.seqno++
	a.forwardRREQ(src, src, dst, n.rreqID, 0, src)
}

// forwardRREQ continues an RREQ flood. at is the current node, origin
// the requester, hops the distance from origin to at.
func (a *AODV) forwardRREQ(at, origin, dst string, rreqID uint64, hops int, skip string) {
	for _, nb := range a.net.Neighbors(at) {
		if nb == skip {
			continue
		}
		nb := nb
		a.stats.MessagesSent++
		a.stats.BytesSent += int64(a.cfg.RREQBytes)
		deliver(a.eng, a.net, a.cfg.LossProb, at, nb, func() {
			if !a.net.Adjacent(nb, at) {
				return
			}
			a.receiveRREQ(nb, at, origin, dst, rreqID, hops+1)
		})
	}
}

// receiveRREQ handles an RREQ at node `at` arriving from `via`.
func (a *AODV) receiveRREQ(at, via, origin, dst string, rreqID uint64, hops int) {
	if at == origin {
		return
	}
	n := a.node(at)
	// Install/refresh the reverse route to origin.
	now := a.eng.Now()
	rev := n.routes[origin]
	if rev == nil || hops < rev.hops {
		n.routes[origin] = &aodvRoute{nextHop: via, hops: hops, expires: now + a.cfg.RouteLifetimeS}
	} else {
		rev.expires = now + a.cfg.RouteLifetimeS
	}
	if at == dst {
		// Destination replies.
		a.node(dst).seqno++
		a.sendRREP(dst, origin, dst, 0)
		return
	}
	// Duplicate suppression for forwarding.
	if n.seenRREQ[origin] >= rreqID {
		return
	}
	n.seenRREQ[origin] = rreqID
	a.forwardRREQ(at, origin, dst, rreqID, hops, via)
}

// sendRREP unicasts a route reply from `at` back toward origin,
// installing forward routes to dst along the way.
func (a *AODV) sendRREP(at, origin, dst string, hopsFromDst int) {
	if at == origin {
		return
	}
	n := a.node(at)
	r, ok := n.routes[origin]
	if !ok || !a.net.Adjacent(at, r.nextHop) {
		return // reverse path gone; discovery will retry
	}
	nh := r.nextHop
	a.stats.MessagesSent++
	a.stats.BytesSent += int64(a.cfg.RREPBytes)
	deliver(a.eng, a.net, a.cfg.LossProb, at, nh, func() {
		if !a.net.Adjacent(nh, at) {
			return
		}
		m := a.node(nh)
		now := a.eng.Now()
		fwd := m.routes[dst]
		if fwd == nil || hopsFromDst+1 < fwd.hops {
			m.routes[dst] = &aodvRoute{nextHop: at, hops: hopsFromDst + 1, expires: now + a.cfg.RouteLifetimeS}
		} else {
			fwd.expires = now + a.cfg.RouteLifetimeS
		}
		a.sendRREP(nh, origin, dst, hopsFromDst+1)
	})
}

// NextHop implements Router.
func (a *AODV) NextHop(src, dst string) (string, bool) {
	n, ok := a.nodes[src]
	if !ok {
		return "", false
	}
	r, ok := n.routes[dst]
	if !ok || a.eng.Now() > r.expires {
		return "", false
	}
	if !a.net.Adjacent(src, r.nextHop) {
		return "", false
	}
	return r.nextHop, true
}
