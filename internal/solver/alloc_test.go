//go:build !race

package solver

import "testing"

// TestSolveSteadyStateAllocs pins what a repeated solve allocates once
// its scratch is sized: the plan and what it owns (the routes map and
// node paths, the link list and its own copies of the chosen reports)
// and the final sort. The engine's rows, groups and sweep list add
// nothing.
func TestSolveSteadyStateAllocs(t *testing.T) {
	w := newEqWorld(12, 0xA110C)
	w.drift()
	w.drift() // cycle 2: a second request bitrate class is on
	in := w.input(nil)
	s := New(DefaultConfig())
	in.Existing = existingFrom(s.Solve(in))
	s.Solve(in)
	if allocs := testing.AllocsPerRun(10, func() { s.Solve(in) }); allocs != 27 {
		t.Errorf("a steady-state solve allocates %.0f times, want 27", allocs)
	}
}
