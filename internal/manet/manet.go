// Package manet implements the mobile ad-hoc routing protocols of the
// paper's Tier 1 control plane (§4.1) and Appendix D's protocol
// comparison: a batman-adv-style AODV-descendant (Loon's production
// choice), classic AODV, DSDV, and OLSR — all message-level
// implementations running over the simulated link layer.
//
// The routing domain spans "from ground stations up to balloons and
// among connected balloons"; its job is to give every balloon a path
// to a ground-station *gateway* (and from there to an SDN endpoint)
// that repairs faster than the datacenter controller can react.
//
// For multi-day simulations the package also provides Fast, an
// oracle router with a calibrated convergence delay, so the big
// experiments don't pay for per-second OGM floods.
//
// The package has one node-ID space: each node's dense index in the
// network's ID table (Network.IDs). The protocols keep their per-node
// state in slices by index and every route walk runs on indices.
// Names come in only where they arrive from outside: StaticNetwork's
// builders, the fault setters, and the by-name walks PathFrom,
// HasRoute and Fast.NextHop. Tie-breaks that decide an outcome follow
// node-ID (name) order, as NeighborsAt lists neighbours.
package manet

import (
	"slices"
	"strings"

	"minkowski/internal/platform"
	"minkowski/internal/sim"
)

// Network is the link-layer view a routing protocol runs over. The
// radio fabric implements it for production use; tests and the
// Appendix D bench drive it with synthetic topologies. It answers by
// each node's dense index in IDs(): names come in only through an
// implementation's builders and fault setters.
type Network interface {
	// IDs is the table the indices are keyed by.
	IDs() *platform.IDs
	// AppendNodes appends the index of every node in the mesh to dst,
	// each once, in the order the protocols sweep them.
	AppendNodes(dst []int32) []int32
	// NeighborsAt returns the nodes i can transmit to over installed
	// links, in node-ID order. The slice is a read-only view: an
	// implementation may hand out its own storage (the radio fabric
	// does), so callers must not modify it and should copy what they
	// keep.
	NeighborsAt(i int32) []int32
	// AdjacentAt reports whether b is in NeighborsAt(a). Links may die
	// while a message is in flight, so protocols re-check with it on
	// delivery.
	AdjacentAt(a, b int32) bool
	// LatencyAt returns the one-hop delivery latency in seconds between
	// adjacent nodes (typically sub-millisecond propagation plus
	// serialization).
	LatencyAt(a, b int32) float64
}

// Stats counts a protocol's control-plane cost.
type Stats struct {
	// MessagesSent counts every control message transmission
	// (per-hop, so a flood across k links counts k).
	MessagesSent int64
	// BytesSent is the same in bytes.
	BytesSent int64
}

// NextHop is what a route walk reads: every Router, and Fast.
type NextHop interface {
	// NextHopAt returns the next hop from src toward dst, if src
	// currently has a route.
	NextHopAt(src, dst int32) (int32, bool)
	// IDs is the table the indices are keyed by: the network's.
	IDs() *platform.IDs
}

// Router is a message-level routing protocol instance managing
// per-node state for every node in the network.
type Router interface {
	NextHop
	// Name identifies the protocol.
	Name() string
	// Start begins protocol operation (periodic beacons etc.).
	Start()
	// Stats returns cumulative control-plane cost.
	Stats() Stats
}

// maxHops bounds a route: a walk that needs more hops has none.
const maxHops = 64

// walk appends to buf the nodes r's next hops lead through from src
// toward dst, src first, and reports whether they reach dst. A failed
// walk ends at a node with no next hop or at the first node it
// revisits, appended again: its last node appears earlier in it
// exactly when r forwards in a loop. Every walk ends, since no node is
// visited twice.
func walk(r NextHop, buf []int32, src, dst int32) ([]int32, bool) {
	start := len(buf)
	buf = append(buf, src)
	for cur := src; cur != dst; {
		nh, ok := r.NextHopAt(cur, dst)
		if !ok {
			return buf, false
		}
		looped := slices.Contains(buf[start:], nh)
		buf = append(buf, nh)
		if looped {
			return buf, false
		}
		cur = nh
	}
	return buf, true
}

// appendRoute is walk held to maxHops hops: the route from src to dst,
// if r has one. On failure buf holds a partial walk.
func appendRoute(r NextHop, buf []int32, src, dst int32) ([]int32, bool) {
	start := len(buf)
	buf, ok := walk(r, buf, src, dst)
	return buf, ok && len(buf)-start <= maxHops+1
}

// PathFrom returns the node path (src first, dst last) r's next hops
// lead along from src to dst, if they get there within maxHops hops
// without a loop. It serves any router by node ID; the simulation
// itself forwards over Fast.AppendPath, the same walk by index.
func PathFrom(r NextHop, src, dst string) ([]string, bool) {
	if src == dst {
		return []string{src}, true
	}
	ids := r.IDs()
	s, oks := ids.Lookup(src)
	d, okd := ids.Lookup(dst)
	if !oks || !okd {
		return nil, false
	}
	var stack [maxHops + 1]int32
	path, ok := appendRoute(r, stack[:0], s, d)
	if !ok {
		return nil, false
	}
	out := make([]string, len(path))
	for k, i := range path {
		out[k] = ids.Name(i)
	}
	return out, true
}

// HasRoute reports whether src can currently reach dst hop by hop.
func HasRoute(r NextHop, src, dst string) bool {
	_, ok := PathFrom(r, src, dst)
	return ok
}

// proto is what the four message-level protocols share: the engine,
// the network, the cost counters, and the entry points through which
// every event reaches a protocol — each sizes the per-node state to the
// ID table first, so every index an event meets is in range.
type proto struct {
	eng   *sim.Engine
	net   Network
	stats Stats
	// loss is the per-hop control-message loss probability.
	loss float64
	// resize grows the protocol's per-node state to dim nodes.
	resize func(dim int)
	dim    int
	sweep  []int32 // AppendNodes scratch
}

// Stats implements Router.
func (p *proto) Stats() Stats { return p.stats }

// IDs implements Router with the network's table.
func (p *proto) IDs() *platform.IDs { return p.net.IDs() }

// fit sizes the per-node state to the ID table, which only grows.
func (p *proto) fit() {
	if dim := p.net.IDs().Len(); dim != p.dim {
		p.dim = dim
		p.resize(dim)
	}
}

// known reports whether the per-node state covers src and dst.
func (p *proto) known(src, dst int32) bool {
	return uint32(src) < uint32(p.dim) && uint32(dst) < uint32(p.dim)
}

// every runs fn every interval seconds over the network's nodes, in
// AppendNodes order.
func (p *proto) every(interval float64, fn func(nodes []int32)) {
	p.eng.Every(interval, func() bool {
		p.fit()
		p.sweep = p.net.AppendNodes(p.sweep[:0])
		fn(p.sweep)
		return true
	})
}

// send counts a control message of size bytes from a to its neighbor
// b and, unless it is lost, runs recv after the hop's latency if b is
// still adjacent to a then.
func (p *proto) send(size int, a, b int32, recv func()) {
	p.stats.MessagesSent++
	p.stats.BytesSent += int64(size)
	if p.loss > 0 && p.eng.RNG("manet-loss").Float64() < p.loss {
		return
	}
	lat := p.net.LatencyAt(a, b)
	if lat <= 0 {
		lat = 0.003
	}
	p.eng.After(lat, func() {
		p.fit()
		if p.net.AdjacentAt(b, a) {
			recv()
		}
	})
}

// extend extends s to n elements with copies of fill: per-node protocol
// state grows with the ID table.
func extend[T any](s []T, n int, fill T) []T {
	for len(s) < n {
		s = append(s, fill)
	}
	return s
}

// --- Static test topology --------------------------------------------

// StaticNetwork is a mutable in-memory Network for tests and benches.
// It owns its ID table; every node it has been told of is in the mesh.
type StaticNetwork struct {
	ids *platform.IDs
	// byName lists every node in node-ID order, the order AppendNodes
	// gives.
	byName []int32
	// adj[i] lists the nodes i can transmit to, in node-ID order.
	adj [][]int32
	// LatencyS is the uniform one-hop latency.
	LatencyS float64
}

// NewStaticNetwork creates an empty topology.
func NewStaticNetwork() *StaticNetwork {
	return &StaticNetwork{ids: platform.NewIDs(), LatencyS: 0.003}
}

// AddNode adds a node, if new, and returns its index.
func (s *StaticNetwork) AddNode(id string) int32 {
	i := s.ids.Intern(id)
	s.adj = extend(s.adj, int(i)+1, nil)
	if at, found := s.search(s.byName, i); !found {
		s.byName = slices.Insert(s.byName, at, i)
	}
	return i
}

// search finds b's place in a node-ID-ordered list.
func (s *StaticNetwork) search(list []int32, b int32) (int, bool) {
	return slices.BinarySearchFunc(list, b, func(x, b int32) int {
		return strings.Compare(s.ids.Name(x), s.ids.Name(b))
	})
}

// Connect adds a bidirectional link.
func (s *StaticNetwork) Connect(a, b string) {
	s.ConnectOneWay(a, b)
	s.ConnectOneWay(b, a)
}

// Disconnect removes a link.
func (s *StaticNetwork) Disconnect(a, b string) {
	s.DisconnectOneWay(a, b)
	s.DisconnectOneWay(b, a)
}

// ConnectOneWay adds only the a → b direction (asymmetric-link
// topologies for partial-partition tests).
func (s *StaticNetwork) ConnectOneWay(a, b string) {
	ia, ib := s.AddNode(a), s.AddNode(b)
	if at, found := s.search(s.adj[ia], ib); !found {
		s.adj[ia] = slices.Insert(s.adj[ia], at, ib)
	}
}

// DisconnectOneWay removes only the a → b direction, leaving b → a
// intact: the static-topology equivalent of a partial partition.
func (s *StaticNetwork) DisconnectOneWay(a, b string) {
	ia, oka := s.ids.Lookup(a)
	ib, okb := s.ids.Lookup(b)
	if !oka || !okb {
		return
	}
	if at, found := s.search(s.adj[ia], ib); found {
		s.adj[ia] = slices.Delete(s.adj[ia], at, at+1)
	}
}

// IDs implements Network.
func (s *StaticNetwork) IDs() *platform.IDs { return s.ids }

// AppendNodes implements Network in node-ID order.
func (s *StaticNetwork) AppendNodes(dst []int32) []int32 { return append(dst, s.byName...) }

// NeighborsAt implements Network.
func (s *StaticNetwork) NeighborsAt(i int32) []int32 {
	if int(i) < len(s.adj) {
		return s.adj[i]
	}
	return nil
}

// AdjacentAt implements Network.
func (s *StaticNetwork) AdjacentAt(a, b int32) bool { return slices.Contains(s.NeighborsAt(a), b) }

// LatencyAt implements Network.
func (s *StaticNetwork) LatencyAt(a, b int32) float64 { return s.LatencyS }
