//go:build !race

package satcom

import (
	"testing"

	"minkowski/internal/sim"
)

// TestSendAndDeliverDoNotAllocate: a warm message's Send, its provider's
// latency draw and its delivery run on a reused row whose events are
// bound once, as does a drop.
func TestSendAndDeliverDoNotAllocate(t *testing.T) {
	eng := sim.New(1)
	g := NewGateway(eng, DefaultProviders())
	delivered := 0
	g.Deliver = func(m *Message) { delivered++ }
	trip := func() {
		g.Send(Message{Dest: "hbal-001", Size: 512, TTE: eng.Now() + 600})
		g.Send(Message{Dest: "hbal-001", RequiresInBand: true}) // dropped at once
		for n := delivered; delivered == n; {
			eng.Step()
		}
	}
	trip()
	if allocs := testing.AllocsPerRun(100, trip); allocs != 0 {
		t.Errorf("a satcom send and delivery allocate %.0f times, want 0", allocs)
	}
	if g.Delivered != 102 || g.Dropped != 102 || len(g.free) != 2 {
		t.Errorf("delivered %d, dropped %d, free rows %d; want 102, 102, 2", g.Delivered, g.Dropped, len(g.free))
	}
}
