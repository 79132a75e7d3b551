package manet

import (
	"sort"

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
	eng *sim.Engine
	net Network
	cfg OLSRConfig

	nodes map[string]*olsrNode
	stats Stats
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
	id string
	// mprSelectors: neighbors that chose this node as MPR.
	mprSelectors map[string]bool
	// topo[origin][neighbor] = when heard: the link-state database.
	topo map[string]map[string]float64
	// seenTC[origin] = highest TC seqno forwarded.
	seenTC map[string]uint64
	tcSeq  uint64
	// routes computed by dijkstra on topo.
	routes map[string]string // dst -> next hop
}

// NewOLSR creates the protocol.
func NewOLSR(eng *sim.Engine, net Network, cfg OLSRConfig) *OLSR {
	return &OLSR{eng: eng, net: net, cfg: cfg, nodes: make(map[string]*olsrNode)}
}

// Name implements Router.
func (o *OLSR) Name() string { return "olsr" }

// Stats implements Router.
func (o *OLSR) Stats() Stats { return o.stats }

func (o *OLSR) node(id string) *olsrNode {
	n, ok := o.nodes[id]
	if !ok {
		n = &olsrNode{
			id:           id,
			mprSelectors: make(map[string]bool),
			topo:         make(map[string]map[string]float64),
			seenTC:       make(map[string]uint64),
			routes:       make(map[string]string),
		}
		o.nodes[id] = n
	}
	return n
}

// Start implements Router.
func (o *OLSR) Start() {
	// HELLO + MPR selection.
	o.eng.Every(o.cfg.HelloIntervalS, func() bool {
		for _, id := range o.net.Nodes() {
			nbrs := o.net.Neighbors(id)
			o.stats.MessagesSent += int64(len(nbrs))
			o.stats.BytesSent += int64(len(nbrs) * (o.cfg.HelloBytes + 2*len(nbrs)))
			o.selectMPRs(id)
		}
		return true
	})
	// TC floods from nodes with MPR selectors.
	o.eng.Every(o.cfg.TCIntervalS, func() bool {
		for _, id := range o.net.Nodes() {
			n := o.node(id)
			if len(n.mprSelectors) == 0 {
				continue
			}
			n.tcSeq++
			sel := make([]string, 0, len(n.mprSelectors))
			for s := range n.mprSelectors {
				sel = append(sel, s)
			}
			sort.Strings(sel)
			o.floodTC(id, id, n.tcSeq, sel, "")
		}
		o.expireAndRecompute()
		return true
	})
}

// selectMPRs picks a greedy MPR set at a node covering its two-hop
// neighborhood, and marks selector state at the chosen MPRs.
func (o *OLSR) selectMPRs(id string) {
	one := o.net.Neighbors(id)
	oneSet := map[string]bool{}
	for _, n := range one {
		oneSet[n] = true
	}
	// Two-hop neighborhood (excluding self and one-hop).
	twoVia := map[string][]string{} // two-hop node -> one-hop relays
	for _, n := range one {
		for _, m := range o.net.Neighbors(n) {
			if m == id || oneSet[m] {
				continue
			}
			twoVia[m] = append(twoVia[m], n)
		}
	}
	// Greedy cover.
	uncovered := map[string]bool{}
	for m := range twoVia {
		uncovered[m] = true
	}
	mprs := map[string]bool{}
	for len(uncovered) > 0 {
		// Pick the neighbor covering the most uncovered two-hops
		// (ties by name for determinism).
		counts := map[string]int{}
		for m := range uncovered {
			for _, relay := range twoVia[m] {
				counts[relay]++
			}
		}
		bestRelay, bestCount := "", 0
		relays := make([]string, 0, len(counts))
		for r := range counts {
			relays = append(relays, r)
		}
		sort.Strings(relays)
		for _, r := range relays {
			if counts[r] > bestCount {
				bestRelay, bestCount = r, counts[r]
			}
		}
		if bestRelay == "" {
			break
		}
		mprs[bestRelay] = true
		for m := range uncovered {
			for _, relay := range twoVia[m] {
				if relay == bestRelay {
					delete(uncovered, m)
					break
				}
			}
		}
	}
	// Update selector state at the MPRs (conveyed in HELLOs).
	for _, n := range one {
		o.node(n).mprSelectors[id] = mprs[n]
		if !mprs[n] {
			delete(o.node(n).mprSelectors, id)
		}
	}
}

// floodTC distributes a TC message (origin advertises links to its
// selectors) through the MPR backbone.
func (o *OLSR) floodTC(from, origin string, seq uint64, selectors []string, skip string) {
	for _, nb := range o.net.Neighbors(from) {
		if nb == skip {
			continue
		}
		nb := nb
		o.stats.MessagesSent++
		o.stats.BytesSent += int64(o.cfg.TCHeaderBytes + o.cfg.TCEntryBytes*len(selectors))
		deliver(o.eng, o.net, o.cfg.LossProb, from, nb, func() {
			if !o.net.Adjacent(nb, from) {
				return
			}
			o.receiveTC(nb, from, origin, seq, selectors)
		})
	}
}

// receiveTC merges link state and forwards through MPRs.
func (o *OLSR) receiveTC(at, via, origin string, seq uint64, selectors []string) {
	if at == origin {
		return
	}
	n := o.node(at)
	now := o.eng.Now()
	if n.topo[origin] == nil {
		n.topo[origin] = make(map[string]float64)
	}
	for _, s := range selectors {
		n.topo[origin][s] = now
	}
	if n.seenTC[origin] >= seq {
		return
	}
	n.seenTC[origin] = seq
	// Only MPRs of the sender forward (via is the sender).
	if o.node(at).mprSelectors[via] {
		o.floodTC(at, origin, seq, selectors, via)
	}
}

// expireAndRecompute ages out stale topology and recomputes routes at
// every node.
func (o *OLSR) expireAndRecompute() {
	cutoff := o.eng.Now() - o.cfg.TopologyHoldS
	for _, id := range o.net.Nodes() {
		n := o.node(id)
		for origin, links := range n.topo {
			for dst, heard := range links {
				if heard < cutoff {
					delete(links, dst)
				}
			}
			if len(links) == 0 {
				delete(n.topo, origin)
			}
		}
		o.dijkstra(id)
	}
}

// dijkstra computes next hops at a node over its link-state view plus
// its live one-hop neighborhood (BFS: unit link costs).
func (o *OLSR) dijkstra(id string) {
	n := o.node(id)
	// Build adjacency: one-hop truth + advertised topology
	// (symmetrized).
	adj := map[string][]string{}
	addEdge := func(a, b string) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for _, nb := range o.net.Neighbors(id) {
		addEdge(id, nb)
	}
	for origin, links := range n.topo {
		for dst := range links {
			addEdge(origin, dst)
		}
	}
	// BFS from id.
	type qe struct {
		node string
		via  string // first hop used
	}
	n.routes = make(map[string]string)
	visited := map[string]bool{id: true}
	queue := []qe{}
	firstHops := sortedCopy(o.net.Neighbors(id))
	for _, nb := range firstHops {
		if !visited[nb] {
			visited[nb] = true
			n.routes[nb] = nb
			queue = append(queue, qe{node: nb, via: nb})
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		next := sortedCopy(adj[cur.node])
		for _, m := range next {
			if visited[m] {
				continue
			}
			visited[m] = true
			n.routes[m] = cur.via
			queue = append(queue, qe{node: m, via: cur.via})
		}
	}
}

// NextHop implements Router.
func (o *OLSR) NextHop(src, dst string) (string, bool) {
	n, ok := o.nodes[src]
	if !ok {
		return "", false
	}
	nh, ok := n.routes[dst]
	if !ok {
		return "", false
	}
	if !o.net.Adjacent(src, nh) {
		return "", false
	}
	return nh, true
}
