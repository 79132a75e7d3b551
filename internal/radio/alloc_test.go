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
	reads := map[string]func(){
		"Neighbors":   func() { fab.Neighbors("hbal-001") },
		"Adjacent":    func() { fab.Adjacent("hbal-001", "hbal-002"); fab.Adjacent("hbal-002", "gs-0") },
		"LinkBetween": func() { fab.LinkBetween("gs-0", "hbal-001") },
		"NodeUp":      func() { fab.NodeUp("hbal-002"); fab.NodeUp("nope") },
		"UpCount":     func() { fab.UpCount() },
		"NeighborsAt": func() { fab.NeighborsAt(b1) },
		"AdjacentAt":  func() { fab.AdjacentAt(b1, b2); fab.AdjacentAt(b2, gs); fab.AdjacentAt(b1, 99) },
		"LinkAt":      func() { fab.LinkAt(gs, b1) },
	}
	for name, read := range reads {
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("%s allocates %.0f times per call", name, n)
		}
	}
}
