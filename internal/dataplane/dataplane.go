// Package dataplane models the SDN-programmed data plane of §4.1
// (Tier 2) and Appendix C: full source-destination IPv6 routes pinned
// to assigned paths, flow classifiers, and redundancy groups.
//
// Forwarding state lives per node. A programmed route is *operable*
// only when every node on its path holds the forwarding entry and
// every inter-node link on the path is installed — the data-plane
// availability definition behind Fig. 6's lowest line.
package dataplane

import "sort"

// LinkChecker reports whether an installed link currently exists
// between two adjacent nodes (implemented by the radio fabric).
type LinkChecker interface {
	LinkUp(a, b string) bool
}

// LinkCheckerFunc adapts a function.
type LinkCheckerFunc func(a, b string) bool

// LinkUp implements LinkChecker.
func (f LinkCheckerFunc) LinkUp(a, b string) bool { return f(a, b) }

// Route is one programmed source-destination route: the path a
// request's traffic is pinned to ("a primary motivation for the use
// of full source-destination routing was to make sure that traffic
// flows stayed on assigned paths").
type Route struct {
	// ID identifies the route (usually the request ID).
	ID string
	// Generation distinguishes reprogrammed versions of the same
	// route: entries are tagged with it so late removal commands for
	// an old generation cannot wipe a newer generation's state (the
	// paper's missing "sequencing of updates to avoid temporary
	// routing blackholes", §3.1).
	Generation int
	// Path is the node sequence from source to destination.
	Path []string
	// RedundancyGroup tags routes that must seek disjoint paths
	// (Appendix C: "routes with the same redundancy group tag would
	// seek disjoint paths").
	RedundancyGroup string
}

// entry is one forwarding-table row.
type entry struct {
	nextHop string
	gen     int
}

// State is the controller's model of data-plane state across all
// nodes.
type State struct {
	// entries[node][routeID] = next hop + generation.
	entries map[string]map[string]entry
	routes  map[string]*Route
}

// NewState creates empty data-plane state.
func NewState() *State {
	return &State{
		entries: map[string]map[string]entry{},
		routes:  map[string]*Route{},
	}
}

// InstallEntry records that a node has accepted a forwarding entry
// for a route generation (one CDPI RouteUpdate enactment). An older
// generation never overwrites a newer one (out-of-order delivery is
// a fact of life on this control plane).
func (s *State) InstallEntry(node, routeID, nextHop string, gen int) {
	m := s.entries[node]
	if m == nil {
		m = map[string]entry{}
		s.entries[node] = m
	}
	if cur, ok := m[routeID]; ok && cur.gen > gen {
		return
	}
	m[routeID] = entry{nextHop: nextHop, gen: gen}
}

// RemoveEntry deletes a node's entry for a route, but only up to the
// given generation: a removal for generation g must not destroy a
// generation > g entry that was installed concurrently.
func (s *State) RemoveEntry(node, routeID string, gen int) {
	if m := s.entries[node]; m != nil {
		if cur, ok := m[routeID]; ok && cur.gen <= gen {
			delete(m, routeID)
		}
	}
}

// FlushNode drops all forwarding state at a node (power loss: the
// payload rebooted, hardware tables are gone).
func (s *State) FlushNode(node string) {
	delete(s.entries, node)
}

// HasEntry reports whether the node holds an entry for the route at
// exactly the given generation.
func (s *State) HasEntry(node, routeID string, gen int) bool {
	m := s.entries[node]
	e, ok := m[routeID]
	return ok && e.gen == gen
}

// NextHopFor returns the node's installed forwarding entry for a
// route, whatever its generation — the hop a packet would actually
// take. The chaos search walks these to find persistent
// mixed-generation forwarding loops.
func (s *State) NextHopFor(node, routeID string) (nextHop string, gen int, ok bool) {
	e, ok := s.entries[node][routeID]
	return e.nextHop, e.gen, ok
}

// DeclareRoute registers the intended route (before programming).
func (s *State) DeclareRoute(r *Route) { s.routes[r.ID] = r }

// DropRoute removes the route and all its entries.
func (s *State) DropRoute(routeID string) {
	r, ok := s.routes[routeID]
	if !ok {
		return
	}
	for _, n := range r.Path {
		s.RemoveEntry(n, routeID, r.Generation)
	}
	delete(s.routes, routeID)
}

// Route returns a declared route.
func (s *State) Route(id string) (*Route, bool) {
	r, ok := s.routes[id]
	return r, ok
}

// Routes returns all declared routes sorted by ID.
func (s *State) Routes() []*Route {
	out := make([]*Route, 0, len(s.routes))
	for _, r := range s.routes {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FullyProgrammed reports whether every node on the route's path
// holds its entry.
func (s *State) FullyProgrammed(routeID string) bool {
	r, ok := s.routes[routeID]
	if !ok {
		return false
	}
	for i, n := range r.Path {
		if i == len(r.Path)-1 {
			break // destination needs no forwarding entry
		}
		if !s.HasEntry(n, routeID, r.Generation) {
			return false
		}
	}
	return true
}

// Operable reports whether a route currently carries traffic: fully
// programmed AND every path link installed.
func (s *State) Operable(routeID string, links LinkChecker) bool {
	r, ok := s.routes[routeID]
	if !ok || !s.FullyProgrammed(routeID) {
		return false
	}
	for i := 1; i < len(r.Path); i++ {
		if !links.LinkUp(r.Path[i-1], r.Path[i]) {
			return false
		}
	}
	return true
}

// FlowClassifier is an Appendix C "flow classifier" matching rule for
// a backhaul service request.
type FlowClassifier struct {
	// SrcPrefix and DstPrefix are IPv6 /64 prefixes (node prefixes).
	SrcPrefix, DstPrefix string
	// MinBitrateBps is the bandwidth reservation.
	MinBitrateBps float64
	// RedundancyGroup requests path-disjoint redundancy.
	RedundancyGroup string
}
