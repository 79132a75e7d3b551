// Package nbi implements the TS-SDN's northbound interface (Appendix
// C): the gRPC service surface other datacenter systems — LTE service
// management, the FMS, production engineering — used to provision the
// network.
//
// It holds backhaul *service requests* ("flow classifier" matching
// rules, required bandwidth, desired path redundancy) that become the
// solver's connectivity requests. The paper's administrative drains
// are not modelled: nothing in a run requested one.
package nbi

import (
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

// Service is the NBI registry.
type Service struct {
	requests map[string]*BackhaulRequest
}

// NewService creates an empty NBI.
func NewService() *Service {
	return &Service{requests: map[string]*BackhaulRequest{}}
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
