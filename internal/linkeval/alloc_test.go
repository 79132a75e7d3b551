//go:build !race

package linkeval

import (
	"math/rand"
	"testing"
)

// TestCandidateGraphSteadyStateAllocs: once one graph has sized the
// evaluator's storage, a graph allocates nothing.
func TestCandidateGraphSteadyStateAllocs(t *testing.T) {
	_, xs := randomFleet(rand.New(rand.NewSource(9)), 24)
	e := New(DefaultConfig(), &gradientRain{}, nil)
	if len(e.CandidateGraph(xs, 0)) == 0 {
		t.Fatal("no candidates")
	}
	if allocs := testing.AllocsPerRun(10, func() { e.CandidateGraph(xs, 0) }); allocs != 0 {
		t.Errorf("a steady-state graph allocates %.0f times, want 0", allocs)
	}
}

// TestDiffDoesNotAllocate: the per-sample graph delta is one merge
// over two ID lists the caller already holds.
func TestDiffDoesNotAllocate(t *testing.T) {
	_, xs := randomFleet(rand.New(rand.NewSource(9)), 24)
	e := New(DefaultConfig(), &gradientRain{}, nil)
	a := AppendIDs(nil, e.CandidateGraph(xs, 0))
	b := a[1:]
	var d GraphDelta
	if allocs := testing.AllocsPerRun(100, func() { d = Diff(a, b) }); allocs != 0 {
		t.Errorf("Diff allocates %.0f times per call, want 0", allocs)
	}
	if d.Removed != 1 || d.Common != len(b) {
		t.Errorf("delta = %+v, want 1 removed and %d common", d, len(b))
	}
}
