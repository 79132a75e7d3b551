//go:build !race

package cdpi

import "testing"

// TestInBandVerdictsDoNotAllocate: the questions the agents, the
// samplers and every in-flight re-validation ask walk into InBand's own
// buffers.
func TestInBandVerdictsDoNotAllocate(t *testing.T) {
	w := newWorld(t, 4, true)
	w.net.Connect("gs-1", nodeID(4)) // a second, nearer gateway for the far end
	w.rt.TopologyChanged()
	w.ib.Gateways = []string{"gs-0", "gs-1"}
	w.eng.Run(10)
	w.ib.SetPartitioned(nodeID(2), true)
	verdicts := map[string]func() bool{
		"Connected":   func() bool { return w.ib.Connected(nodeID(4)) && !w.ib.Connected(nodeID(2)) },
		"ConnectedUp": func() bool { return w.ib.ConnectedUp(nodeID(3)) && w.ib.ConnectedUp("gs-1") },
		"RoutedUp":    func() bool { return w.ib.RoutedUp(nodeID(4)) && !w.ib.RoutedUp("no-such-node") },
	}
	for name, ask := range verdicts {
		if !ask() {
			t.Errorf("%s: wrong verdict on the test mesh", name)
		}
		if allocs := testing.AllocsPerRun(100, func() { ask() }); allocs != 0 {
			t.Errorf("%s allocates %.0f times per run", name, allocs)
		}
	}
}
