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
	"strings"

	"minkowski/internal/platform"
	"minkowski/internal/sim"
)

// Network is the link-layer view a routing protocol runs over. The
// radio fabric implements it for production use; tests and the
// Appendix D bench drive it with synthetic topologies. It answers by
// node ID, which the message-level protocols speak, and by the node's
// dense index in IDs(), which Fast and the in-band walk use so that the
// hot path hashes no strings.
type Network interface {
	// Nodes returns all node IDs, sorted; read-only like Neighbors.
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

	// IDs is the table the index forms are keyed by. AppendNodes
	// appends the index of every node in Nodes to dst; NeighborsAt,
	// AdjacentAt and LatencyAt are Neighbors (same node-ID order, same
	// read-only contract), Adjacent and Latency by index.
	IDs() *platform.IDs
	AppendNodes(dst []int32) []int32
	NeighborsAt(i int32) []int32
	AdjacentAt(a, b int32) bool
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
// path if the route completes without loops. It serves any Router by
// node ID; the simulation itself "forwards" control-plane traffic over
// Fast.AppendPath, the same walk by index.
func PathFrom(r Router, src, dst string) ([]string, bool) {
	if src == dst {
		return []string{src}, true
	}
	path := make([]string, 1, 8)
	path[0] = src
	cur := src
	for i := 0; i < maxHops; i++ {
		nh, ok := r.NextHop(cur, dst)
		if !ok {
			return nil, false
		}
		// The walk is at most maxHops long, so the path is its own visited set.
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
// It owns its ID table; every node it has been told of is in Nodes.
type StaticNetwork struct {
	ids *platform.IDs
	// adj[i] lists the nodes i can transmit to, in node-ID order.
	adj [][]int32
	// LatencyS is the uniform one-hop latency.
	LatencyS float64
}

// NewStaticNetwork creates an empty topology.
func NewStaticNetwork() *StaticNetwork {
	return &StaticNetwork{ids: platform.NewIDs(), LatencyS: 0.003}
}

// AddNode adds a node.
func (s *StaticNetwork) AddNode(id string) { s.node(id) }

func (s *StaticNetwork) node(id string) int32 {
	i := s.ids.Intern(id)
	for int(i) >= len(s.adj) {
		s.adj = append(s.adj, nil)
	}
	return i
}

// search finds b's place in a's node-ID-ordered adjacency.
func (s *StaticNetwork) search(a, b int32) (int, bool) {
	return slices.BinarySearchFunc(s.adj[a], b, func(x, b int32) int {
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
	ia, ib := s.node(a), s.node(b)
	if at, found := s.search(ia, ib); !found {
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
	if at, found := s.search(ia, ib); found {
		s.adj[ia] = slices.Delete(s.adj[ia], at, at+1)
	}
}

// names translates indices to a fresh slice of node IDs.
func (s *StaticNetwork) names(idx []int32) []string {
	out := make([]string, len(idx))
	for k, i := range idx {
		out[k] = s.ids.Name(i)
	}
	return out
}

// Nodes implements Network.
func (s *StaticNetwork) Nodes() []string {
	out := s.names(s.AppendNodes(nil))
	sort.Strings(out)
	return out
}

// Neighbors implements Network.
func (s *StaticNetwork) Neighbors(id string) []string {
	i, ok := s.ids.Lookup(id)
	if !ok {
		return nil
	}
	return s.names(s.NeighborsAt(i))
}

// Adjacent implements Network.
func (s *StaticNetwork) Adjacent(a, b string) bool {
	ia, oka := s.ids.Lookup(a)
	ib, okb := s.ids.Lookup(b)
	return oka && okb && s.AdjacentAt(ia, ib)
}

// Latency implements Network.
func (s *StaticNetwork) Latency(a, b string) float64 { return s.LatencyS }

// IDs implements Network.
func (s *StaticNetwork) IDs() *platform.IDs { return s.ids }

// AppendNodes implements Network.
func (s *StaticNetwork) AppendNodes(dst []int32) []int32 {
	for i := range s.adj {
		dst = append(dst, int32(i))
	}
	return dst
}

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
