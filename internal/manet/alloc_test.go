//go:build !race

package manet

import "testing"

func TestFastNextHopDoesNotAllocate(t *testing.T) {
	eng, net := fabricLine(t)
	f := NewFast(eng, net, 2.0)
	if nh, ok := f.NextHop("hbal-002", "gs-0"); !ok || nh != "hbal-001" {
		t.Fatalf("NextHop(hbal-002, gs-0) = %q, %v", nh, ok)
	}
	allocs := testing.AllocsPerRun(100, func() {
		f.NextHop("hbal-002", "gs-0")
		f.NextHop("gs-0", "hbal-002")
		f.NextHop("hbal-002", "nowhere")
	})
	if allocs != 0 {
		t.Errorf("NextHop on a clean table allocates %.0f times per run", allocs)
	}
	// The walk itself allocates only the path it returns.
	if allocs := testing.AllocsPerRun(100, func() { PathFrom(f, "hbal-002", "gs-0") }); allocs > 1 {
		t.Errorf("PathFrom allocates %.0f times per call, want the path only", allocs)
	}
	// By index nothing allocates: not the walk into a caller's buffer, not
	// the network reads under it, not a table rebuild while the ID table
	// has not grown.
	ids := net.IDs()
	b2, _ := ids.Lookup("hbal-002")
	gs, _ := ids.Lookup("gs-0")
	buf := make([]int32, 0, maxHops+1)
	byIndex := map[string]func(){
		"AppendPath": func() {
			if p, ok := f.AppendPath(buf[:0], b2, gs); !ok || len(p) != 3 {
				t.Fatalf("AppendPath(hbal-002, gs-0) = %v, %v", p, ok)
			}
			f.AppendPath(buf[:0], gs, b2)
			f.AppendPath(buf[:0], gs, int32(ids.Len())) // beyond the table
		},
		"NextHopAt":   func() { f.NextHopAt(b2, gs) },
		"network":     func() { net.NeighborsAt(b2); net.AdjacentAt(b2, gs); net.LatencyAt(b2, gs) },
		"AppendNodes": func() { f.srcs = net.AppendNodes(f.srcs[:0]) },
		"recompute":   func() { f.recompute() },
	}
	for name, fn := range byIndex {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.0f times per run", name, allocs)
		}
	}
}
