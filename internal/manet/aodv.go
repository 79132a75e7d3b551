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
	proto
	cfg   AODVConfig
	nodes []aodvNode // by node index
	// interests are the (src, dst) pairs the simulation keeps alive, in
	// registration order: each src re-discovers dst whenever its route
	// breaks. Same-instant re-discoveries take their loss draws in the
	// order the sweep schedules them.
	interests []aodvInterest
}

type aodvInterest struct {
	src, dst int32
	// pending marks a re-discovery scheduled and not yet sent.
	pending bool
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
	nextHop int32 // -1: no route
	hops    int
	expires float64
}

type aodvNode struct {
	rreqID uint64
	routes []aodvRoute // by destination
	// seenRREQ suppresses duplicate flood processing: by origin, the
	// highest rreqID seen.
	seenRREQ []uint64
}

// NewAODV creates the protocol.
func NewAODV(eng *sim.Engine, net Network, cfg AODVConfig) *AODV {
	a := &AODV{cfg: cfg}
	a.proto = proto{eng: eng, net: net, loss: cfg.LossProb, resize: a.resize}
	return a
}

// Name implements Router.
func (a *AODV) Name() string { return "aodv" }

func (a *AODV) resize(dim int) {
	a.nodes = extend(a.nodes, dim, aodvNode{})
	for i := range a.nodes {
		n := &a.nodes[i]
		n.routes = extend(n.routes, dim, aodvRoute{nextHop: -1})
		n.seenRREQ = extend(n.seenRREQ, dim, 0)
	}
}

// Interest registers that src needs a persistent route to dst (e.g.
// a balloon's gRPC connection to an SDN endpoint). AODV maintains it:
// discovery now, re-discovery on break. Register each pair once.
func (a *AODV) Interest(src, dst int32) {
	a.fit()
	a.interests = append(a.interests, aodvInterest{src: src, dst: dst})
	a.discover(src, dst)
}

// Start implements Router: periodic hello beacons maintain neighbor
// liveness and expire broken routes; broken interests re-discover.
func (a *AODV) Start() {
	a.every(a.cfg.HelloIntervalS, func(nodes []int32) {
		now := a.eng.Now()
		for _, id := range nodes {
			// Hello cost: one broadcast per node per interval.
			nbrs := a.net.NeighborsAt(id)
			a.stats.MessagesSent += int64(len(nbrs))
			a.stats.BytesSent += int64(len(nbrs) * a.cfg.HelloBytes)
			// Expire routes whose next hop is gone or lifetime passed.
			routes := a.nodes[id].routes
			for dst, r := range routes {
				if r.nextHop >= 0 && (now > r.expires || !a.net.AdjacentAt(id, r.nextHop)) {
					routes[dst].nextHop = -1
					// RERR to interested upstreams (simplified: cost
					// accounting only; re-discovery is driven below).
					a.stats.MessagesSent++
					a.stats.BytesSent += int64(a.cfg.RERRBytes)
				}
			}
		}
		// Keep interests alive.
		for k, in := range a.interests {
			if a.nodes[in.src].routes[in.dst].nextHop < 0 && !in.pending {
				a.interests[k].pending = true
				a.eng.After(a.cfg.RediscoverBackoffS, func() {
					a.fit()
					a.interests[k].pending = false
					a.discover(in.src, in.dst)
				})
			}
		}
	})
}

// discover floods an RREQ from src for dst.
func (a *AODV) discover(src, dst int32) {
	n := &a.nodes[src]
	n.rreqID++
	a.forwardRREQ(src, src, dst, n.rreqID, 0, src)
}

// forwardRREQ continues an RREQ flood. at is the current node, origin
// the requester, hops the distance from origin to at.
func (a *AODV) forwardRREQ(at, origin, dst int32, rreqID uint64, hops int, skip int32) {
	for _, nb := range a.net.NeighborsAt(at) {
		if nb != skip {
			a.send(a.cfg.RREQBytes, at, nb, func() { a.receiveRREQ(nb, at, origin, dst, rreqID, hops+1) })
		}
	}
}

// receiveRREQ handles an RREQ at node `at` arriving from `via`.
func (a *AODV) receiveRREQ(at, via, origin, dst int32, rreqID uint64, hops int) {
	if at == origin {
		return
	}
	n := &a.nodes[at]
	// Install/refresh the reverse route to origin.
	expires := a.eng.Now() + a.cfg.RouteLifetimeS
	if rev := &n.routes[origin]; rev.nextHop < 0 || hops < rev.hops {
		*rev = aodvRoute{nextHop: via, hops: hops, expires: expires}
	} else {
		rev.expires = expires
	}
	if at == dst {
		// Destination replies.
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
func (a *AODV) sendRREP(at, origin, dst int32, hopsFromDst int) {
	if at == origin {
		return
	}
	nh := a.nodes[at].routes[origin].nextHop
	if nh < 0 || !a.net.AdjacentAt(at, nh) {
		return // reverse path gone; discovery will retry
	}
	a.send(a.cfg.RREPBytes, at, nh, func() {
		expires := a.eng.Now() + a.cfg.RouteLifetimeS
		if fwd := &a.nodes[nh].routes[dst]; fwd.nextHop < 0 || hopsFromDst+1 < fwd.hops {
			*fwd = aodvRoute{nextHop: at, hops: hopsFromDst + 1, expires: expires}
		} else {
			fwd.expires = expires
		}
		a.sendRREP(nh, origin, dst, hopsFromDst+1)
	})
}

// NextHopAt implements Router: a live, unexpired route whose next hop
// is still adjacent.
func (a *AODV) NextHopAt(src, dst int32) (int32, bool) {
	if !a.known(src, dst) {
		return -1, false
	}
	r := a.nodes[src].routes[dst]
	if r.nextHop < 0 || a.eng.Now() > r.expires || !a.net.AdjacentAt(src, r.nextHop) {
		return -1, false
	}
	return r.nextHop, true
}
