//go:build !race

package solver

import "testing"

// TestSolveSteadyStateAllocs pins what a repeated solve allocates once
// its scratch is sized: the plan and its routes map (five), and what
// the plan owns, each sized once — the link list, its own copies of the
// chosen reports, and the one array the route paths are cut from. The
// input's node numbering, the engine's rows, groups and sweep list and
// the link sort add nothing.
func TestSolveSteadyStateAllocs(t *testing.T) {
	w := newEqWorld(12, 0xA110C)
	w.drift()
	w.drift() // cycle 2: a second request bitrate class is on
	in := w.input(nil)
	s := New(DefaultConfig())
	in.Existing = existingFrom(s.Solve(in))
	s.Solve(in)
	if allocs := testing.AllocsPerRun(10, func() { s.Solve(in) }); allocs != 8 {
		t.Errorf("a steady-state solve allocates %.0f times, want 8", allocs)
	}
}
