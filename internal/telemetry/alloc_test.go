//go:build !race

package telemetry

import "testing"

// TestObserveDoesNotAllocate: a sample of a node the tracker already
// knows, in a period it already holds, allocates nothing.
func TestObserveDoesNotAllocate(t *testing.T) {
	r := NewReachability(86400)
	now := 0.0
	sample := func() {
		now += 30
		for _, layer := range []Layer{LayerLink, LayerControl, LayerData} {
			r.Observe(now, 0, layer, true)
		}
	}
	sample()
	if allocs := testing.AllocsPerRun(100, sample); allocs != 0 {
		t.Errorf("Observe allocates %.0f times per sample", allocs)
	}
	if got := r.Ratio(LayerData); got != 1 {
		t.Errorf("ratio %v, want 1", got)
	}
}
