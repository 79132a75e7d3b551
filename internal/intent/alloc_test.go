//go:build !race

package intent

import (
	"testing"

	"minkowski/internal/linkeval"
)

// TestWithdrawOnlyReconcileDoesNotAllocate: a pass that only withdraws
// links and removes routes builds its actions in the store's own
// slices. Each run re-adopts the removed routes, so every pass removes
// them again.
func TestWithdrawOnlyReconcileDoesNotAllocate(t *testing.T) {
	st := NewStore()
	n1, n2, n3 := mkNode("hbal-001"), mkNode("hbal-002"), mkNode("hbal-003")
	st.Reconcile(planWith([]*linkeval.Report{mkReport(n1, n2, 0, 0), mkReport(n1, n3, 1, 0)},
		map[string][]string{"r1": {"hbal-002", "hbal-001"}, "r2": {"hbal-003", "hbal-001"}}), 0)
	routes := st.ActiveRoutes()
	empty := planWith(nil, nil)
	pass := func() {
		for _, ri := range routes {
			ri.State = RoutePending
			st.AdoptRoute(ri)
		}
		acts := st.Reconcile(empty, 1)
		if len(acts.WithdrawLinks) != 2 || len(acts.RemoveRoutes) != 2 || len(acts.EstablishLinks)+len(acts.ProgramRoutes) != 0 {
			t.Fatalf("acts = %+v, want 2 withdrawals and 2 removals", acts)
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Errorf("a withdraw-only reconcile allocates %.0f times", allocs)
	}
}
