//go:build !race

package radio

import (
	"testing"

	"minkowski/internal/rf"
)

func TestIndexedReadsDoNotAllocate(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	fab.Establish(nodes[0].Xcvrs[1], nodes[2].Xcvrs[0], rf.EBandChannels()[1], 1)
	eng.Run(300)
	if fab.UpCount() != 2 {
		t.Fatalf("precondition: 2 links up, have %d", fab.UpCount())
	}
	b1, b2, gs := nodes[0].Index, nodes[1].Index, nodes[2].Index
	up := fab.UpLinks()
	reads := map[string]func(){
		"Neighbors":     func() { fab.Neighbors("hbal-001") },
		"Adjacent":      func() { fab.Adjacent("hbal-001", "hbal-002"); fab.Adjacent("hbal-002", "gs-0") },
		"LinkBetween":   func() { fab.LinkBetween("gs-0", "hbal-001") },
		"NodeUp":        func() { fab.NodeUp("hbal-002"); fab.NodeUp("nope") },
		"UpCount":       func() { fab.UpCount() },
		"NeighborsAt":   func() { fab.NeighborsAt(b1) },
		"AdjacentAt":    func() { fab.AdjacentAt(b1, b2); fab.AdjacentAt(b2, gs); fab.AdjacentAt(b1, 99) },
		"LinkAt":        func() { fab.LinkAt(gs, b1) },
		"AppendUpLinks": func() { up = fab.AppendUpLinks(up[:0]) },
	}
	for name, read := range reads {
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("%s allocates %.0f times per call", name, n)
		}
	}
}

// TestCheckAcrossWorldStepDoesNotAllocatePerLink: a world step moves
// every balloon and the weather, and the next check solves each link's
// geometry and attenuation again into the memo the link already holds,
// and copies its snapshot of the link list into the buffer it reuses.
func TestCheckAcrossWorldStepDoesNotAllocatePerLink(t *testing.T) {
	eng, fab, nodes := meshWorld(3, reliable())
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			for _, xa := range a.Xcvrs {
				for _, xb := range b.Xcvrs {
					fab.Establish(xa, xb, rf.EBandChannels()[0], 1)
				}
			}
		}
	}
	eng.Run(300)
	up := fab.UpCount()
	if up < 4 {
		t.Fatalf("precondition: at least 4 links up, have %d", up)
	}
	wx := fabWx(fab)
	integrations := fab.PathIntegrations
	allocs := testing.AllocsPerRun(10, func() {
		for _, n := range nodes[:6] {
			n.Balloon.Pos.Alt += 1
		}
		wx.Step(60)
		fab.checkAll()
	})
	if allocs != 0 {
		t.Errorf("a check after a world step allocates %.0f times over %d links, want 0", allocs, up)
	}
	if fab.UpCount() != up || fab.PathIntegrations != integrations+11*up {
		t.Errorf("%d links up of %d, %d integrations: every link must stay up and integrate once per step",
			fab.UpCount(), up, fab.PathIntegrations-integrations)
	}
}
