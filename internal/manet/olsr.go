package manet

import (
	"slices"

	"minkowski/internal/sim"
)

// OLSR is the Optimized Link State Routing protocol [RFC 3626],
// simplified: nodes exchange HELLO messages to sense neighbors and
// select MultiPoint Relays (MPRs) covering their two-hop
// neighborhood; Topology Control (TC) messages flooded through MPRs
// give every node a partial link-state view from which it computes
// shortest-path routes. Appendix D found OLSR's convergence lagged
// AODV/DSDV in Loon's environment.
type OLSR struct {
	proto
	cfg   OLSRConfig
	nodes []olsrNode // by node index
	// link is route computation's adjacency matrix, row-major by index.
	link  []bool
	queue []int32 // route computation's scratch
}

// OLSRConfig tunes the protocol.
type OLSRConfig struct {
	// HelloIntervalS is the neighbor-sensing period.
	HelloIntervalS float64
	// TCIntervalS is the topology-control flood period.
	TCIntervalS float64
	// TopologyHoldS expires link-state entries.
	TopologyHoldS float64
	// LossProb is per-hop control loss.
	LossProb float64
	// HelloBytes + TC sizes.
	HelloBytes, TCHeaderBytes, TCEntryBytes int
}

// DefaultOLSRConfig returns RFC-flavored defaults.
func DefaultOLSRConfig() OLSRConfig {
	return OLSRConfig{
		HelloIntervalS: 2.0,
		TCIntervalS:    5.0,
		TopologyHoldS:  15.0,
		LossProb:       0.01,
		HelloBytes:     16, TCHeaderBytes: 16, TCEntryBytes: 8,
	}
}

type olsrNode struct {
	// selectors: neighbors that chose this node as MPR.
	selectors []int32
	// topo is the link-state database: the links TC messages
	// advertised, each with when it was last heard.
	topo []olsrLink
	// seenTC[origin] is the highest TC seqno forwarded.
	seenTC []uint64
	tcSeq  uint64
	// routes[dst] is the next hop toward dst, -1 where none: a BFS over
	// topo and the live one-hop neighborhood.
	routes []int32
}

// olsrLink is one link-state entry: origin advertised a link to to.
type olsrLink struct {
	origin, to int32
	heard      float64
}

// NewOLSR creates the protocol.
func NewOLSR(eng *sim.Engine, net Network, cfg OLSRConfig) *OLSR {
	o := &OLSR{cfg: cfg}
	o.proto = proto{eng: eng, net: net, loss: cfg.LossProb, resize: o.resize}
	return o
}

// Name implements Router.
func (o *OLSR) Name() string { return "olsr" }

func (o *OLSR) resize(dim int) {
	o.nodes = extend(o.nodes, dim, olsrNode{})
	for i := range o.nodes {
		n := &o.nodes[i]
		n.seenTC = extend(n.seenTC, dim, 0)
		n.routes = extend(n.routes, dim, -1)
	}
	o.link = make([]bool, dim*dim)
}

// Start implements Router.
func (o *OLSR) Start() {
	// HELLO + MPR selection.
	o.every(o.cfg.HelloIntervalS, func(nodes []int32) {
		for _, id := range nodes {
			nbrs := o.net.NeighborsAt(id)
			o.stats.MessagesSent += int64(len(nbrs))
			o.stats.BytesSent += int64(len(nbrs) * (o.cfg.HelloBytes + 2*len(nbrs)))
			o.selectMPRs(id)
		}
	})
	// TC floods from nodes with MPR selectors.
	o.every(o.cfg.TCIntervalS, func(nodes []int32) {
		for _, id := range nodes {
			n := &o.nodes[id]
			if len(n.selectors) == 0 {
				continue
			}
			n.tcSeq++
			o.floodTC(id, id, n.tcSeq, slices.Clone(n.selectors), -1)
		}
		o.expireAndRecompute(nodes)
	})
}

// selectMPRs picks a greedy MPR set at a node covering its two-hop
// neighborhood, and marks selector state at the chosen MPRs.
func (o *OLSR) selectMPRs(id int32) {
	one := o.net.NeighborsAt(id)
	// Two-hop neighborhood (excluding self and one-hop).
	var two []int32
	for _, n := range one {
		for _, m := range o.net.NeighborsAt(n) {
			if m != id && !slices.Contains(one, m) && !slices.Contains(two, m) {
				two = append(two, m)
			}
		}
	}
	// Greedy cover: a neighbor covers the two-hop nodes it can reach.
	var mprs []int32
	for len(two) > 0 {
		// Pick the neighbor covering the most uncovered two-hops; one
		// is in node-ID order, so ties go to the first name.
		best, bestCount := int32(-1), 0
		for _, r := range one {
			count := 0
			for _, m := range two {
				if o.net.AdjacentAt(r, m) {
					count++
				}
			}
			if count > bestCount {
				best, bestCount = r, count
			}
		}
		if best < 0 {
			break
		}
		mprs = append(mprs, best)
		two = slices.DeleteFunc(two, func(m int32) bool { return o.net.AdjacentAt(best, m) })
	}
	// Update selector state at the MPRs (conveyed in HELLOs).
	for _, n := range one {
		sel := &o.nodes[n].selectors
		at := slices.Index(*sel, id)
		if chosen := slices.Contains(mprs, n); chosen && at < 0 {
			*sel = append(*sel, id)
		} else if !chosen && at >= 0 {
			*sel = slices.Delete(*sel, at, at+1)
		}
	}
}

// floodTC distributes a TC message (origin advertises links to its
// selectors) through the MPR backbone.
func (o *OLSR) floodTC(from, origin int32, seq uint64, selectors []int32, skip int32) {
	size := o.cfg.TCHeaderBytes + o.cfg.TCEntryBytes*len(selectors)
	for _, nb := range o.net.NeighborsAt(from) {
		if nb != skip {
			o.send(size, from, nb, func() { o.receiveTC(nb, from, origin, seq, selectors) })
		}
	}
}

// receiveTC merges link state and forwards through MPRs.
func (o *OLSR) receiveTC(at, via, origin int32, seq uint64, selectors []int32) {
	if at == origin {
		return
	}
	n := &o.nodes[at]
	now := o.eng.Now()
	for _, s := range selectors {
		if k := slices.IndexFunc(n.topo, func(l olsrLink) bool { return l.origin == origin && l.to == s }); k >= 0 {
			n.topo[k].heard = now
		} else {
			n.topo = append(n.topo, olsrLink{origin: origin, to: s, heard: now})
		}
	}
	if n.seenTC[origin] >= seq {
		return
	}
	n.seenTC[origin] = seq
	// Only MPRs of the sender forward (via is the sender).
	if slices.Contains(n.selectors, via) {
		o.floodTC(at, origin, seq, selectors, via)
	}
}

// expireAndRecompute ages out stale topology and recomputes routes at
// each node.
func (o *OLSR) expireAndRecompute(nodes []int32) {
	cutoff := o.eng.Now() - o.cfg.TopologyHoldS
	for _, id := range nodes {
		n := &o.nodes[id]
		n.topo = slices.DeleteFunc(n.topo, func(l olsrLink) bool { return l.heard < cutoff })
		o.route(id)
	}
}

// route computes next hops at a node over its link-state view plus its
// live one-hop neighborhood: a BFS (unit link costs) over the links
// symmetrized. Among equally short routes the first hop decides, taken
// in NeighborsAt's node-ID order; every node a first hop's subtree
// reaches inherits that hop, so the order in which a node's further
// links are visited changes no route.
func (o *OLSR) route(id int32) {
	n := &o.nodes[id]
	dim := len(o.nodes)
	clear(o.link)
	edge := func(a, b int32) {
		o.link[int(a)*dim+int(b)] = true
		o.link[int(b)*dim+int(a)] = true
	}
	for _, nb := range o.net.NeighborsAt(id) {
		edge(id, nb)
	}
	for _, l := range n.topo {
		edge(l.origin, l.to)
	}
	routes := n.routes
	for i := range routes {
		routes[i] = -1
	}
	routes[id] = id // visited; cleared below, a node has no hop to itself
	q := o.queue[:0]
	for _, nb := range o.net.NeighborsAt(id) {
		if routes[nb] < 0 {
			routes[nb] = nb
			q = append(q, nb)
		}
	}
	for head := 0; head < len(q); head++ {
		row := o.link[int(q[head])*dim:][:dim]
		for m, linked := range row {
			if linked && routes[m] < 0 {
				routes[m] = routes[q[head]]
				q = append(q, int32(m))
			}
		}
	}
	routes[id] = -1
	o.queue = q
}

// NextHopAt implements Router: the next hop must still be adjacent.
func (o *OLSR) NextHopAt(src, dst int32) (int32, bool) {
	if !o.known(src, dst) {
		return -1, false
	}
	nh := o.nodes[src].routes[dst]
	if nh < 0 || !o.net.AdjacentAt(src, nh) {
		return -1, false
	}
	return nh, true
}
