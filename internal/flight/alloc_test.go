//go:build !race

package flight

import "testing"

// TestPredictPositionDoesNotAllocate: the Link Evaluator asks for one
// predicted position per balloon per solve cycle; the ghost flight
// behind it, its altitude decisions and the wind reads they make
// allocate nothing.
func TestPredictPositionDoesNotAllocate(t *testing.T) {
	f, _ := testSetup(8)
	if allocs := testing.AllocsPerRun(100, func() {
		for _, b := range f.Fleet {
			f.PredictPosition(b, 1800, 180)
		}
	}); allocs != 0 {
		t.Errorf("predicting the fleet's positions allocates %.0f times, want 0", allocs)
	}
}
