package nbi

import (
	"testing"

	"minkowski/internal/dataplane"
	"minkowski/internal/platform"
)

// nodes registers hand-built nodes in one index table.
func nodes(names ...string) []*platform.Node {
	ids := platform.NewIDs()
	out := make([]*platform.Node, len(names))
	for i, name := range names {
		out[i] = &platform.Node{ID: name}
		ids.Register(out[i])
	}
	return out
}

func classifier(mbps float64) dataplane.FlowClassifier {
	return dataplane.FlowClassifier{
		SrcPrefix: "2001:db8:1::/64", DstPrefix: "2001:db8:2::/64",
		MinBitrateBps: mbps * 1e6,
	}
}

func TestBackhaulLifecycle(t *testing.T) {
	s := NewService()
	ns := nodes("hbal-001", "hbal-002")
	b1, b2 := ns[0], ns[1]
	id := s.RequestBackhaul(b1, classifier(50))
	if id != "backhaul/hbal-001" {
		t.Errorf("id = %q", id)
	}
	if len(s.SolverRequests()) != 1 || !s.HasActiveBackhaul(b1.Index) {
		t.Fatal("request not active")
	}
	if s.HasActiveBackhaul(b2.Index) {
		t.Error("a node that never asked has no active backhaul")
	}
	reqs := s.SolverRequests()
	if len(reqs) != 1 || reqs[0].Src != "hbal-001" || reqs[0].MinBitrateBps != 50e6 {
		t.Errorf("solver requests = %+v", reqs)
	}
	s.ReleaseBackhaul(b1.Index)
	if len(s.SolverRequests()) != 0 || s.HasActiveBackhaul(b1.Index) {
		t.Error("released request still active")
	}
	// Re-request reactivates with new parameters.
	s.RequestBackhaul(b1, classifier(100))
	reqs = s.SolverRequests()
	if len(reqs) != 1 || reqs[0].MinBitrateBps != 100e6 || !s.HasActiveBackhaul(b1.Index) {
		t.Errorf("reactivated request = %+v", reqs)
	}
}

// TestSolverRequestsSorted files three requests in descending order,
// so a list kept in filing order fails here; a released request drops
// out and its re-request comes back in place.
func TestSolverRequestsSorted(t *testing.T) {
	s := NewService()
	ns := nodes("hbal-009", "hbal-005", "hbal-001")
	for _, n := range ns {
		s.RequestBackhaul(n, classifier(10))
	}
	reqs := s.SolverRequests()
	if len(reqs) != 3 || reqs[0].Src != "hbal-001" || reqs[1].Src != "hbal-005" || reqs[2].Src != "hbal-009" {
		t.Errorf("requests not sorted: %+v", reqs)
	}
	s.ReleaseBackhaul(ns[1].Index)
	if reqs = s.AppendSolverRequests(reqs[:0]); len(reqs) != 2 || reqs[1].Src != "hbal-009" {
		t.Errorf("after a release: %+v", reqs)
	}
	s.Reactivate(ns[1].Index)
	if reqs = s.AppendSolverRequests(reqs[:0]); len(reqs) != 3 || reqs[1].Src != "hbal-005" {
		t.Errorf("after a re-request: %+v", reqs)
	}
	if allocs := testing.AllocsPerRun(10, func() { reqs = s.AppendSolverRequests(reqs[:0]) }); allocs != 0 {
		t.Errorf("AppendSolverRequests into a reused buffer allocates %.0f times", allocs)
	}
}
