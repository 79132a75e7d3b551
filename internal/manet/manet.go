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
package manet

import (
	"slices"
	"sort"

	"minkowski/internal/sim"
)

// Network is the link-layer view a routing protocol runs over. The
// radio fabric implements it for production use; tests and the
// Appendix D bench drive it with synthetic topologies.
type Network interface {
	// Nodes returns all node IDs, sorted.
	Nodes() []string
	// Neighbors returns the nodes adjacent to id over installed
	// links, sorted. The slice is a read-only view: an implementation
	// may hand out its own storage (the radio fabric does), so callers
	// must not modify it and should copy what they keep.
	Neighbors(id string) []string
	// Adjacent reports whether b is in Neighbors(a). Links may die while
	// a message is in flight, so protocols re-check with it on delivery.
	Adjacent(a, b string) bool
	// Latency returns the one-hop delivery latency in seconds between
	// adjacent nodes (typically sub-millisecond propagation plus
	// serialization).
	Latency(a, b string) float64
}

// Stats counts a protocol's control-plane cost.
type Stats struct {
	// MessagesSent counts every control message transmission
	// (per-hop, so a flood across k links counts k).
	MessagesSent int64
	// BytesSent is the same in bytes.
	BytesSent int64
}

// Router is a routing protocol instance managing per-node state for
// every node in the network.
type Router interface {
	// Name identifies the protocol.
	Name() string
	// Start begins protocol operation (periodic beacons etc.).
	Start()
	// NextHop returns the next hop from src toward dst, if src
	// currently has a route.
	NextHop(src, dst string) (string, bool)
	// Stats returns cumulative control-plane cost.
	Stats() Stats
}

// PathFrom walks NextHop from src toward dst and returns the node
// path if the route completes without loops. This is how the
// simulation "forwards" control-plane traffic.
//
//minkowski:hotpath
func PathFrom(r Router, src, dst string) ([]string, bool) {
	if src == dst {
		return []string{src}, true
	}
	path := make([]string, 1, 8)
	path[0] = src
	cur := src
	for i := 0; i < 64; i++ {
		nh, ok := r.NextHop(cur, dst)
		if !ok {
			return nil, false
		}
		// The walk is at most 64 hops, so the path is its own visited set.
		if slices.Contains(path, nh) {
			return nil, false // loop
		}
		path = append(path, nh)
		if nh == dst {
			return path, true
		}
		cur = nh
	}
	return nil, false
}

// HasRoute reports whether src can currently reach dst hop by hop.
func HasRoute(r Router, src, dst string) bool {
	_, ok := PathFrom(r, src, dst)
	return ok
}

// deliver schedules the delivery of a control message from a to its
// neighbor b, applying latency and the loss probability.
func deliver(eng *sim.Engine, net Network, lossProb float64, a, b string, fn func()) {
	if lossProb > 0 && eng.RNG("manet-loss").Float64() < lossProb {
		return
	}
	lat := net.Latency(a, b)
	if lat <= 0 {
		lat = 0.003
	}
	eng.After(lat, func() { fn() })
}

// sortedCopy returns a sorted copy of ids.
func sortedCopy(ids []string) []string {
	out := make([]string, len(ids))
	copy(out, ids)
	sort.Strings(out)
	return out
}

// --- Static test topology --------------------------------------------

// StaticNetwork is a mutable in-memory Network for tests and benches.
type StaticNetwork struct {
	nodes map[string]bool
	adj   map[string]map[string]bool
	// LatencyS is the uniform one-hop latency.
	LatencyS float64
}

// NewStaticNetwork creates an empty topology.
func NewStaticNetwork() *StaticNetwork {
	return &StaticNetwork{
		nodes:    make(map[string]bool),
		adj:      make(map[string]map[string]bool),
		LatencyS: 0.003,
	}
}

// AddNode adds a node.
func (s *StaticNetwork) AddNode(id string) {
	s.nodes[id] = true
	if s.adj[id] == nil {
		s.adj[id] = make(map[string]bool)
	}
}

// Connect adds a bidirectional link.
func (s *StaticNetwork) Connect(a, b string) {
	s.AddNode(a)
	s.AddNode(b)
	s.adj[a][b] = true
	s.adj[b][a] = true
}

// Disconnect removes a link.
func (s *StaticNetwork) Disconnect(a, b string) {
	if s.adj[a] != nil {
		delete(s.adj[a], b)
	}
	if s.adj[b] != nil {
		delete(s.adj[b], a)
	}
}

// ConnectOneWay adds only the a → b direction (asymmetric-link
// topologies for partial-partition tests).
func (s *StaticNetwork) ConnectOneWay(a, b string) {
	s.AddNode(a)
	s.AddNode(b)
	s.adj[a][b] = true
}

// DisconnectOneWay removes only the a → b direction, leaving b → a
// intact: the static-topology equivalent of a partial partition.
func (s *StaticNetwork) DisconnectOneWay(a, b string) {
	if s.adj[a] != nil {
		delete(s.adj[a], b)
	}
}

// Nodes implements Network.
func (s *StaticNetwork) Nodes() []string {
	out := make([]string, 0, len(s.nodes))
	for id := range s.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Neighbors implements Network.
func (s *StaticNetwork) Neighbors(id string) []string {
	out := make([]string, 0, len(s.adj[id]))
	for n := range s.adj[id] {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Adjacent implements Network.
func (s *StaticNetwork) Adjacent(a, b string) bool { return s.adj[a][b] }

// Latency implements Network.
func (s *StaticNetwork) Latency(a, b string) float64 { return s.LatencyS }
