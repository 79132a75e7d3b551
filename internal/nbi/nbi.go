// Package nbi implements the TS-SDN's northbound interface (Appendix
// C): the gRPC service surface other datacenter systems — LTE service
// management, the FMS, production engineering — used to provision the
// network.
//
// Two concepts dominate: backhaul *service requests* ("flow
// classifier" matching rules, required bandwidth, desired path
// redundancy) that become the solver's connectivity requests, and
// *administrative drains* that temporarily exclude nodes from the
// data plane for maintenance, low-power transitions, and software
// updates.
package nbi

import (
	"fmt"
	"sort"

	"minkowski/internal/dataplane"
	"minkowski/internal/solver"
)

// BackhaulRequest is one service request for transit across the
// network.
type BackhaulRequest struct {
	// ID names the request.
	ID string
	// Node is the balloon whose eNodeB needs backhaul.
	Node string
	// Classifier matches the traffic.
	Classifier dataplane.FlowClassifier
	// RedundancyGroup, when set, asks for disjoint paths across
	// requests sharing the tag (combined with SCTP multi-homing and
	// S1-Flex in production).
	RedundancyGroup string
	// Active requests feed the solver; deactivated ones linger for
	// history.
	Active bool
}

// DrainPolicy selects how aggressively traffic leaves a draining
// node.
type DrainPolicy int

const (
	// DrainOpportunistic passively waits for the node to naturally
	// lose all traffic, then latches ("we could expect every node to
	// become fully disconnected from the mesh every night").
	DrainOpportunistic DrainPolicy = iota
	// DrainDeter biases the solver away from the node until it
	// drains.
	DrainDeter
	// DrainForce immediately reroutes traffic off the node.
	DrainForce
)

// String implements fmt.Stringer.
func (p DrainPolicy) String() string {
	switch p {
	case DrainOpportunistic:
		return "opportunistic"
	case DrainDeter:
		return "deter"
	default:
		return "force"
	}
}

// DrainState is a drain request's lifecycle.
type DrainState int

const (
	// DrainRequested: registered, not yet in effect.
	DrainRequested DrainState = iota
	// DrainDraining: in effect; traffic leaving.
	DrainDraining
	// DrainLatched: the node is drained; maintenance may proceed.
	DrainLatched
	// DrainReleased: terminal.
	DrainReleased
)

// String implements fmt.Stringer.
func (s DrainState) String() string {
	switch s {
	case DrainRequested:
		return "requested"
	case DrainDraining:
		return "draining"
	case DrainLatched:
		return "latched"
	default:
		return "released"
	}
}

// Drain is one administrative drain request.
type Drain struct {
	ID     string
	Node   string
	Policy DrainPolicy
	// EnactAt delays the drain (0 = immediately).
	EnactAt float64
	State   DrainState
	// Reason is free-form operator/automation context.
	Reason string
}

// Service is the NBI registry.
type Service struct {
	requests map[string]*BackhaulRequest
	drains   map[string]*Drain
	nextID   int
}

// NewService creates an empty NBI.
func NewService() *Service {
	return &Service{
		requests: map[string]*BackhaulRequest{},
		drains:   map[string]*Drain{},
	}
}

// RequestBackhaul registers (or reactivates) a backhaul request for a
// node. Returns the request ID.
func (s *Service) RequestBackhaul(node string, classifier dataplane.FlowClassifier, redundancyGroup string) string {
	id := "backhaul/" + node
	if r, ok := s.requests[id]; ok {
		r.Active = true
		r.Classifier = classifier
		r.RedundancyGroup = redundancyGroup
		return id
	}
	s.requests[id] = &BackhaulRequest{
		ID: id, Node: node, Classifier: classifier,
		RedundancyGroup: redundancyGroup, Active: true,
	}
	return id
}

// ReleaseBackhaul deactivates a node's backhaul (e.g. the LTE stack
// detected the balloon left the serving region).
func (s *Service) ReleaseBackhaul(node string) {
	if r, ok := s.requests["backhaul/"+node]; ok {
		r.Active = false
	}
}

// HasActiveBackhaul reports whether a node's backhaul request is
// active.
func (s *Service) HasActiveBackhaul(node string) bool {
	r, ok := s.requests["backhaul/"+node]
	return ok && r.Active
}

// ActiveRequests returns active backhaul requests sorted by ID.
func (s *Service) ActiveRequests() []*BackhaulRequest {
	var out []*BackhaulRequest
	for _, r := range s.requests {
		if r.Active {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SolverRequests converts active backhaul requests into solver
// connectivity requests (Dst empty = any gateway).
func (s *Service) SolverRequests() []solver.Request {
	var out []solver.Request
	for _, r := range s.ActiveRequests() {
		out = append(out, solver.Request{
			ID: r.ID, Src: r.Node, MinBitrateBps: r.Classifier.MinBitrateBps,
		})
	}
	return out
}

// RequestDrain registers a drain.
func (s *Service) RequestDrain(node string, policy DrainPolicy, enactAt float64, reason string) string {
	s.nextID++
	id := fmt.Sprintf("drain/%s/%d", node, s.nextID)
	s.drains[id] = &Drain{
		ID: id, Node: node, Policy: policy,
		EnactAt: enactAt, State: DrainRequested, Reason: reason,
	}
	return id
}

// ReleaseDrain ends a drain, returning the node to service.
func (s *Service) ReleaseDrain(id string) bool {
	d, ok := s.drains[id]
	if !ok || d.State == DrainReleased {
		return false
	}
	d.State = DrainReleased
	return true
}

// Drains returns all drains sorted by ID.
func (s *Service) Drains() []*Drain {
	out := make([]*Drain, 0, len(s.drains))
	for _, d := range s.drains {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Tick advances drain state machines at time now. traffic reports
// the route IDs currently traversing a node (from the data plane
// state).
func (s *Service) Tick(now float64, traffic func(node string) []string) {
	for _, d := range s.Drains() {
		switch d.State {
		case DrainRequested:
			if now >= d.EnactAt {
				d.State = DrainDraining
			}
		case DrainDraining:
			switch d.Policy {
			case DrainOpportunistic, DrainDeter:
				// Latch when the node naturally carries nothing.
				if len(traffic(d.Node)) == 0 {
					d.State = DrainLatched
				}
			case DrainForce:
				// The solver exclusion reroutes traffic; latch as
				// soon as it's gone (typically next solve cycle).
				if len(traffic(d.Node)) == 0 {
					d.State = DrainLatched
				}
			}
		}
	}
}

// SolverExclusions returns the nodes the solver must avoid: forced
// drains exclude immediately on draining; deter and opportunistic
// drains exclude only once latched (opportunistic never pushes
// traffic off — it waits; deter biases; we approximate deter as
// exclusion-when-latched plus solver cost bias upstream).
func (s *Service) SolverExclusions() map[string]bool {
	out := map[string]bool{}
	for _, d := range s.drains {
		switch d.State {
		case DrainDraining:
			if d.Policy == DrainForce || d.Policy == DrainDeter {
				out[d.Node] = true
			}
		case DrainLatched:
			out[d.Node] = true
		}
	}
	return out
}

// Drained reports whether a node is safe for maintenance.
func (s *Service) Drained(node string) bool {
	for _, d := range s.drains {
		if d.Node == node && d.State == DrainLatched {
			return true
		}
	}
	return false
}
