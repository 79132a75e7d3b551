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
