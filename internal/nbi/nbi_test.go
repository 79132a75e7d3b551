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
	if len(s.ActiveRequests()) != 1 || !s.HasActiveBackhaul("hbal-001") {
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
	if len(s.ActiveRequests()) != 0 || s.HasActiveBackhaul("hbal-001") {
		t.Error("released request still active")
	}
	// Re-request reactivates with new parameters.
	s.RequestBackhaul("hbal-001", classifier(100), "rg-1")
	reqs = s.SolverRequests()
	if len(reqs) != 1 || reqs[0].MinBitrateBps != 100e6 || !s.HasActiveBackhaul("hbal-001") {
		t.Errorf("reactivated request = %+v", reqs)
	}
}

func TestSolverRequestsSorted(t *testing.T) {
	s := NewService()
	s.RequestBackhaul("hbal-009", classifier(10), "")
	s.RequestBackhaul("hbal-001", classifier(10), "")
	reqs := s.SolverRequests()
	if len(reqs) != 2 || reqs[0].Src != "hbal-001" {
		t.Errorf("requests not sorted: %+v", reqs)
	}
}

func TestOpportunisticDrainWaitsForQuiet(t *testing.T) {
	s := NewService()
	id := s.RequestDrain("hbal-001", DrainOpportunistic, 0, "nightly software update")
	busy := func(node string) []string { return []string{"r1"} }
	quiet := func(node string) []string { return nil }

	s.Tick(1, busy)
	if s.Drained("hbal-001") {
		t.Error("node with traffic must not latch")
	}
	// Opportunistic drains never force exclusion while draining.
	if s.SolverExclusions()["hbal-001"] {
		t.Error("opportunistic drain must not exclude a busy node")
	}
	s.Tick(2, quiet)
	if !s.Drained("hbal-001") {
		t.Error("quiet node must latch")
	}
	if !s.SolverExclusions()["hbal-001"] {
		t.Error("latched node must be excluded")
	}
	if !s.ReleaseDrain(id) {
		t.Error("release failed")
	}
	if s.Drained("hbal-001") || s.SolverExclusions()["hbal-001"] {
		t.Error("released drain must clear exclusion")
	}
	if s.ReleaseDrain(id) {
		t.Error("double release must fail")
	}
}

func TestForceDrainExcludesImmediately(t *testing.T) {
	s := NewService()
	s.RequestDrain("hbal-002", DrainForce, 0, "troubleshooting")
	busy := func(node string) []string { return []string{"r1"} }
	s.Tick(1, busy)
	if !s.SolverExclusions()["hbal-002"] {
		t.Error("force drain must exclude while still draining")
	}
	if s.Drained("hbal-002") {
		t.Error("force drain with traffic must not be latched yet")
	}
	quiet := func(node string) []string { return nil }
	s.Tick(2, quiet)
	if !s.Drained("hbal-002") {
		t.Error("force drain must latch once traffic is gone")
	}
}

func TestDeterDrainExcludes(t *testing.T) {
	s := NewService()
	s.RequestDrain("hbal-003", DrainDeter, 0, "calibration")
	s.Tick(1, func(string) []string { return []string{"r9"} })
	if !s.SolverExclusions()["hbal-003"] {
		t.Error("deter drain must steer the solver away")
	}
}

func TestDrainEnactTime(t *testing.T) {
	s := NewService()
	s.RequestDrain("hbal-004", DrainForce, 100, "scheduled maintenance")
	quiet := func(string) []string { return nil }
	s.Tick(50, quiet)
	if len(s.SolverExclusions()) != 0 {
		t.Error("drain must not act before its enactment time")
	}
	s.Tick(101, quiet)
	s.Tick(102, quiet)
	if !s.Drained("hbal-004") {
		t.Error("drain must act after its enactment time")
	}
}

func TestMultipleDrainsSameNode(t *testing.T) {
	s := NewService()
	id1 := s.RequestDrain("hbal-005", DrainForce, 0, "a")
	id2 := s.RequestDrain("hbal-005", DrainForce, 0, "b")
	if id1 == id2 {
		t.Error("drain IDs must be unique")
	}
	quiet := func(string) []string { return nil }
	s.Tick(1, quiet)
	s.Tick(2, quiet)
	s.ReleaseDrain(id1)
	if !s.Drained("hbal-005") {
		t.Error("second drain must keep the node drained")
	}
	s.ReleaseDrain(id2)
	if s.Drained("hbal-005") {
		t.Error("all drains released — node must return to service")
	}
}
