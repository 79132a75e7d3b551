package nbi

import (
	"testing"

	"minkowski/internal/dataplane"
)

func classifier(mbps float64) dataplane.FlowClassifier {
	return dataplane.FlowClassifier{
		SrcPrefix: "2001:db8:1::/64", DstPrefix: "2001:db8:2::/64",
		MinBitrateBps: mbps * 1e6,
	}
}

func TestBackhaulLifecycle(t *testing.T) {
	s := NewService()
	id := s.RequestBackhaul("hbal-001", classifier(50), "rg-1")
	if id != "backhaul/hbal-001" {
		t.Errorf("id = %q", id)
	}
	if len(s.SolverRequests()) != 1 || !s.HasActiveBackhaul("hbal-001") {
		t.Fatal("request not active")
	}
	if s.HasActiveBackhaul("hbal-002") {
		t.Error("a node that never asked has no active backhaul")
	}
	reqs := s.SolverRequests()
	if len(reqs) != 1 || reqs[0].Src != "hbal-001" || reqs[0].MinBitrateBps != 50e6 {
		t.Errorf("solver requests = %+v", reqs)
	}
	s.ReleaseBackhaul("hbal-001")
	if len(s.SolverRequests()) != 0 || s.HasActiveBackhaul("hbal-001") {
		t.Error("released request still active")
	}
	// Re-request reactivates with new parameters.
	s.RequestBackhaul("hbal-001", classifier(100), "rg-1")
	reqs = s.SolverRequests()
	if len(reqs) != 1 || reqs[0].MinBitrateBps != 100e6 || !s.HasActiveBackhaul("hbal-001") {
		t.Errorf("reactivated request = %+v", reqs)
	}
}

// TestSolverRequestsSorted files three requests in descending order,
// so a list kept in filing order fails here; a released request drops
// out and its re-request comes back in place.
func TestSolverRequestsSorted(t *testing.T) {
	s := NewService()
	for _, src := range []string{"hbal-009", "hbal-005", "hbal-001"} {
		s.RequestBackhaul(src, classifier(10), "")
	}
	reqs := s.SolverRequests()
	if len(reqs) != 3 || reqs[0].Src != "hbal-001" || reqs[1].Src != "hbal-005" || reqs[2].Src != "hbal-009" {
		t.Errorf("requests not sorted: %+v", reqs)
	}
	s.ReleaseBackhaul("hbal-005")
	if reqs = s.AppendSolverRequests(reqs[:0]); len(reqs) != 2 || reqs[1].Src != "hbal-009" {
		t.Errorf("after a release: %+v", reqs)
	}
	s.Reactivate("hbal-005")
	if reqs = s.AppendSolverRequests(reqs[:0]); len(reqs) != 3 || reqs[1].Src != "hbal-005" {
		t.Errorf("after a re-request: %+v", reqs)
	}
	if allocs := testing.AllocsPerRun(10, func() { reqs = s.AppendSolverRequests(reqs[:0]) }); allocs != 0 {
		t.Errorf("AppendSolverRequests into a reused buffer allocates %.0f times", allocs)
	}
}
