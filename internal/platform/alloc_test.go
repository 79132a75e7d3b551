//go:build !race

package platform

import "testing"

// TestFleetStepDoesNotAllocate: a world step that changes no membership
// (flight, altitude decisions, power, the membership sweep) allocates
// nothing.
func TestFleetStepDoesNotAllocate(t *testing.T) {
	f, _ := newTestFleet(10)
	tick := 0.0
	step := func() {
		f.Step(tick, 60)
		tick += 60
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("a fleet step allocates %.0f times, want 0", allocs)
	}
	if f.FMS.Recycled != 0 {
		t.Fatalf("precondition: %d balloons recycled; a recycle joins a node", f.FMS.Recycled)
	}
}
