//go:build !race

package linkeval

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestCandidateGraphSteadyStateAllocs: once one graph has sized the
// evaluator's storage, the serial path allocates nothing per graph (at
// wider fan-outs only the goroutines do).
func TestCandidateGraphSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, xs := randomFleet(rand.New(rand.NewSource(9)), 24)
	e := New(DefaultConfig(), &gradientRain{}, nil)
	if len(e.CandidateGraph(xs, 0)) == 0 {
		t.Fatal("no candidates")
	}
	if allocs := testing.AllocsPerRun(10, func() { e.CandidateGraph(xs, 0) }); allocs != 0 {
		t.Errorf("a steady-state graph allocates %.0f times, want 0", allocs)
	}
}
