package manet

import (
	"slices"
	"testing"

	"minkowski/internal/sim"
)

func TestStaticNetworkOneWayEdges(t *testing.T) {
	net := NewStaticNetwork()
	net.ConnectOneWay("a", "b")
	a, b := at(net, "a"), at(net, "b")
	if !net.AdjacentAt(a, b) {
		t.Error("a should reach b after ConnectOneWay(a, b)")
	}
	if net.AdjacentAt(b, a) {
		t.Error("one-way edge must not create the reverse direction")
	}

	// A symmetric link degraded to one-way: only the removed direction
	// disappears.
	net.Connect("c", "d")
	net.DisconnectOneWay("c", "d")
	c, d := at(net, "c"), at(net, "d")
	if net.AdjacentAt(c, d) {
		t.Error("c→d should be gone after DisconnectOneWay")
	}
	if !net.AdjacentAt(d, c) {
		t.Error("d→c must survive DisconnectOneWay(c, d)")
	}
}

func TestFastRouterHonorsAsymmetry(t *testing.T) {
	// gs ← b1 exists but gs → b1 does not: the fast router's
	// gateway-rooted tree must not offer b1 a route that depends on
	// the dead direction, and traffic b1 → gs must still work over
	// the surviving direction.
	eng := sim.New(1)
	net := NewStaticNetwork()
	net.Connect("gs", "b1")
	net.Connect("b1", "b2")
	f := NewFast(eng, net, 0.5)
	eng.Run(2)
	if _, ok := PathFrom(f, "b2", "gs"); !ok {
		t.Fatal("precondition: symmetric route up")
	}

	// Kill only b1's transmissions toward gs (the chaos
	// partial-partition direction): the up-path must disappear while
	// the gateway can still reach b1.
	net.DisconnectOneWay("b1", "gs")
	f.TopologyChanged()
	eng.Run(eng.Now() + 2)
	if _, ok := PathFrom(f, "b2", "gs"); ok {
		t.Error("up-path should be dead: b1 can no longer transmit to gs")
	}
	if _, ok := PathFrom(f, "gs", "b2"); !ok {
		t.Error("down-path gs→b2 must survive the one-way cut")
	}
}

func TestFindLoopDetectsCycle(t *testing.T) {
	loop, found := FindLoop(newLoopRouter(), []int32{0, 1, 2})
	if !found {
		t.Fatal("the ping-pong router must report a loop")
	}
	if want := []string{"a", "b", "a"}; loop.Src != "a" || loop.Dst != "z" || !slices.Equal(loop.Cycle, want) {
		t.Errorf("loop %+v, want a→z cycling %v", loop, want)
	}
}

func TestFindLoopIgnoresDeadEnds(t *testing.T) {
	// A partitioned line: b02 has no next hop toward gs. That is a
	// dead end (packets drop), not a loop (packets orbit) — FindLoop
	// must stay quiet where PathFrom conflates the two.
	eng := sim.New(1)
	net := lineTopology(3)
	net.Disconnect("b01", "gs")
	f := NewFast(eng, net, 0.5)
	eng.Run(2)
	if loop, found := FindLoop(f, net.AppendNodes(nil)); found {
		t.Errorf("dead-end topology reported as loop: %+v", loop)
	}
}

// TestDSDVSnapshotLoopFree churns a mesh and asserts the DSDV routing
// snapshot stays loop-free at every settle point — the
// sequence-number machinery exists precisely to prevent the
// count-to-infinity loops of plain distance-vector.
func TestDSDVSnapshotLoopFree(t *testing.T) {
	eng := sim.New(3)
	net := meshTopology(8)
	d := NewDSDV(eng, net, DefaultDSDVConfig())
	d.Start()
	eng.Run(30)
	for round := 0; round < 4; round++ {
		if round%2 == 0 {
			net.Disconnect("b08", "b07")
			net.Disconnect("b04", "b03")
		} else {
			net.Connect("b08", "b07")
			net.Connect("b04", "b03")
		}
		eng.Run(eng.Now() + 20)
		if loop, found := FindLoop(d, net.AppendNodes(nil)); found {
			t.Fatalf("round %d: DSDV snapshot loops %v forwarding %s→%s",
				round, loop.Cycle, loop.Src, loop.Dst)
		}
	}
}
