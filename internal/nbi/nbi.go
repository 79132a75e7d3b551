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
	"slices"
	"strings"

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

// Service is the NBI registry, one backhaul request per node.
type Service struct {
	requests map[string]*BackhaulRequest // by node
	byID     []*BackhaulRequest          // the same requests, sorted by ID
}

// NewService creates an empty NBI.
func NewService() *Service {
	return &Service{requests: map[string]*BackhaulRequest{}}
}

// RequestBackhaul registers (or reactivates) a backhaul request for a
// node. Returns the request ID.
func (s *Service) RequestBackhaul(node string, classifier dataplane.FlowClassifier, redundancyGroup string) string {
	r, ok := s.requests[node]
	if !ok {
		r = &BackhaulRequest{ID: "backhaul/" + node, Node: node}
		s.requests[node] = r
		at, _ := slices.BinarySearchFunc(s.byID, r.ID, func(q *BackhaulRequest, id string) int { return strings.Compare(q.ID, id) })
		s.byID = slices.Insert(s.byID, at, r)
	}
	r.Classifier, r.RedundancyGroup, r.Active = classifier, redundancyGroup, true
	return r.ID
}

// Reactivate re-activates a node's existing backhaul request as it
// stands, reporting false when the node has none.
func (s *Service) Reactivate(node string) bool {
	r, ok := s.requests[node]
	if ok {
		r.Active = true
	}
	return ok
}

// ReleaseBackhaul deactivates a node's backhaul (e.g. the LTE stack
// detected the balloon left the serving region).
func (s *Service) ReleaseBackhaul(node string) {
	if r, ok := s.requests[node]; ok {
		r.Active = false
	}
}

// HasActiveBackhaul reports whether a node's backhaul request is
// active.
func (s *Service) HasActiveBackhaul(node string) bool {
	r, ok := s.requests[node]
	return ok && r.Active
}

// AppendSolverRequests appends the active backhaul requests to dst as
// solver connectivity requests (Dst empty = any gateway), sorted by ID,
// and returns the extended slice: a caller that passes the previous
// call's slice back, emptied, allocates nothing.
func (s *Service) AppendSolverRequests(dst []solver.Request) []solver.Request {
	for _, r := range s.byID {
		if r.Active {
			dst = append(dst, solver.Request{ID: r.ID, Src: r.Node, MinBitrateBps: r.Classifier.MinBitrateBps})
		}
	}
	return dst
}

// SolverRequests returns AppendSolverRequests' list in a slice of the
// caller's own.
func (s *Service) SolverRequests() []solver.Request { return s.AppendSolverRequests(nil) }
