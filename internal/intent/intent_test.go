package intent

import (
	"testing"

	"minkowski/internal/flight"
	"minkowski/internal/geo"
	"minkowski/internal/linkeval"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/rf"
	"minkowski/internal/solver"
)

// mkReport fabricates a candidate report between two nodes' first
// free transceivers.
func mkReport(a, b *platform.Node, xa, xb int) *linkeval.Report {
	return &linkeval.Report{
		ID: radio.MakeLinkID(a.Xcvrs[xa].ID, b.Xcvrs[xb].ID),
		XA: a.Xcvrs[xa], XB: b.Xcvrs[xb],
		Budget: rf.Budget{BitrateBps: 500e6, MarginDB: 6, SNRdB: 12},
		Class:  rf.Acceptable,
	}
}

func mkNode(id string) *platform.Node {
	b := &flight.Balloon{ID: id, Pos: geo.LLADeg(-1, 37, 18000)}
	return platform.NewBalloonNode(b)
}

func planWith(reports []*linkeval.Report, routes map[string][]string) *solver.Plan {
	p := &solver.Plan{Routes: routes}
	for _, r := range reports {
		p.Links = append(p.Links, solver.Chosen{Report: r, Channel: rf.EBandChannels()[0]})
	}
	if p.Routes == nil {
		p.Routes = map[string][]string{}
	}
	return p
}

func TestReconcileCreatesIntents(t *testing.T) {
	st := NewStore()
	n1, n2 := mkNode("hbal-001"), mkNode("hbal-002")
	plan := planWith([]*linkeval.Report{mkReport(n1, n2, 0, 0)},
		map[string][]string{"r1": {"hbal-002", "hbal-001"}})
	acts := st.Reconcile(plan, 100)
	if len(acts.EstablishLinks) != 1 || len(acts.ProgramRoutes) != 1 {
		t.Fatalf("acts = %+v", acts)
	}
	li := acts.EstablishLinks[0]
	if li.State != LinkPending || li.CreatedAt != 100 {
		t.Errorf("intent = %+v", li)
	}
	if len(st.ActiveLinks()) != 1 || len(st.ActiveRoutes()) != 1 {
		t.Error("store must hold the new intents")
	}
	// Reconciling the same plan again is a no-op.
	acts2 := st.Reconcile(plan, 200)
	if !acts2.Empty() {
		t.Errorf("steady-state reconcile must be empty, got %+v", acts2)
	}
}

func TestReconcileWithdrawsObsoleteLinks(t *testing.T) {
	st := NewStore()
	n1, n2, n3 := mkNode("hbal-001"), mkNode("hbal-002"), mkNode("hbal-003")
	r12 := mkReport(n1, n2, 0, 0)
	r13 := mkReport(n1, n3, 1, 0)
	st.Reconcile(planWith([]*linkeval.Report{r12, r13}, nil), 0)
	// New plan keeps only r12.
	acts := st.Reconcile(planWith([]*linkeval.Report{r12}, nil), 10)
	if len(acts.WithdrawLinks) != 1 || acts.WithdrawLinks[0].Link != r13.ID {
		t.Fatalf("withdraws = %+v", acts.WithdrawLinks)
	}
	// The withdraw action does NOT terminate the intent; actuation
	// does after commanding.
	if _, live := st.ActiveLink(r13.ID); !live {
		t.Error("intent must remain live until actuation confirms withdrawal")
	}
	li := acts.WithdrawLinks[0]
	st.MarkWithdrawn(r13.ID, 12)
	if _, live := st.ActiveLink(r13.ID); live {
		t.Error("MarkWithdrawn must retire the intent")
	}
	if st.Ended() != 1 || li.State != LinkWithdrawn {
		t.Error("the withdrawal must end the intent")
	}
}

func TestLinkLifecycleTimestamps(t *testing.T) {
	st := NewStore()
	n1, n2 := mkNode("hbal-001"), mkNode("hbal-002")
	rep := mkReport(n1, n2, 0, 0)
	st.Reconcile(planWith([]*linkeval.Report{rep}, nil), 5)
	id := rep.ID
	st.MarkCommanded(id, 10)
	st.MarkInstalling(id, 20)
	st.MarkEstablished(id, 80)
	li, _ := st.ActiveLink(id)
	if li.State != LinkEstablished {
		t.Fatalf("state = %v", li.State)
	}
	if li.CommandedAt != 10 || li.InstallingAt != 20 || li.EstablishedAt != 80 {
		t.Errorf("timestamps = %+v", li)
	}
	if li.Attempts != 1 {
		t.Errorf("attempts = %d", li.Attempts)
	}
	st.MarkFailed(id, "rf-fade", 500)
	if st.Ended() != 1 {
		t.Fatal("failure must end the intent")
	}
	if li.State != LinkFailed || li.FailReason != "rf-fade" || li.EndedAt != 500 {
		t.Errorf("ended intent = %+v", li)
	}
}

func TestRetryIncrementsAttempts(t *testing.T) {
	st := NewStore()
	n1, n2 := mkNode("hbal-001"), mkNode("hbal-002")
	rep := mkReport(n1, n2, 0, 0)
	st.Reconcile(planWith([]*linkeval.Report{rep}, nil), 0)
	st.MarkCommanded(rep.ID, 1)
	st.MarkInstalling(rep.ID, 2)
	st.MarkRetry(rep.ID, 60)
	st.MarkInstalling(rep.ID, 61)
	li, _ := st.ActiveLink(rep.ID)
	if li.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", li.Attempts)
	}
}

func TestTerminalStatesAreFinal(t *testing.T) {
	st := NewStore()
	n1, n2 := mkNode("hbal-001"), mkNode("hbal-002")
	rep := mkReport(n1, n2, 0, 0)
	li := st.Reconcile(planWith([]*linkeval.Report{rep}, nil), 0).EstablishLinks[0]
	st.MarkWithdrawn(rep.ID, 5)
	// Further marks must be no-ops (the intent has ended).
	st.MarkEstablished(rep.ID, 6)
	st.MarkFailed(rep.ID, "late", 7)
	if st.Ended() != 1 {
		t.Errorf("ended = %d intents", st.Ended())
	}
	if li.State != LinkWithdrawn {
		t.Error("terminal state must not change")
	}
}

func TestRouteReprogramOnPathChange(t *testing.T) {
	st := NewStore()
	routes1 := map[string][]string{"r1": {"b2", "b1", "gs"}}
	st.Reconcile(planWith(nil, routes1), 0)
	st.MarkRouteProgrammed("r1", 1)
	// Same path: no action.
	acts := st.Reconcile(planWith(nil, routes1), 10)
	if !acts.Empty() {
		t.Fatal("same path must be a no-op")
	}
	// Changed path: remove old gen, program new.
	routes2 := map[string][]string{"r1": {"b2", "b3", "gs"}}
	acts = st.Reconcile(planWith(nil, routes2), 20)
	if len(acts.RemoveRoutes) != 1 || len(acts.ProgramRoutes) != 1 {
		t.Fatalf("acts = %+v", acts)
	}
	if acts.ProgramRoutes[0].Generation != 2 {
		t.Errorf("generation = %d, want 2", acts.ProgramRoutes[0].Generation)
	}
	if old := acts.RemoveRoutes[0]; old.Generation != 1 || old.State != RouteRemoved {
		t.Errorf("removed %+v, want the old generation, marked removed", old)
	}
}

func TestRouteRemovedWhenGone(t *testing.T) {
	st := NewStore()
	st.Reconcile(planWith(nil, map[string][]string{"r1": {"b1", "gs"}}), 0)
	acts := st.Reconcile(planWith(nil, nil), 10)
	if len(acts.RemoveRoutes) != 1 {
		t.Fatalf("acts = %+v", acts)
	}
	if len(st.ActiveRoutes()) != 0 {
		t.Error("removed route still active")
	}
}

func TestReconcileDeterministicOrder(t *testing.T) {
	mk := func() Actions {
		st := NewStore()
		n1, n2, n3 := mkNode("hbal-001"), mkNode("hbal-002"), mkNode("hbal-003")
		reports := []*linkeval.Report{
			mkReport(n1, n2, 0, 0), mkReport(n2, n3, 1, 0), mkReport(n1, n3, 1, 1),
		}
		return st.Reconcile(planWith(reports, map[string][]string{
			"a": {"hbal-001", "hbal-002"}, "b": {"hbal-002", "hbal-003"},
		}), 0)
	}
	a1, a2 := mk(), mk()
	for i := range a1.EstablishLinks {
		if a1.EstablishLinks[i].Link != a2.EstablishLinks[i].Link {
			t.Fatal("establish order must be deterministic")
		}
	}
	for i := range a1.ProgramRoutes {
		if a1.ProgramRoutes[i].ID != a2.ProgramRoutes[i].ID {
			t.Fatal("route order must be deterministic")
		}
	}
}
