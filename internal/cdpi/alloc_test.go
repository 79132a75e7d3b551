//go:build !race

package cdpi

import (
	"testing"

	"minkowski/internal/geo"
)

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
		"ConnectedUp": func() bool { return w.ib.ConnectedUp(w.fe.idx(nodeID(3))) && w.ib.ConnectedUp(w.fe.idx("gs-1")) },
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

// TestHeartbeatRoundTripDoesNotAllocate: a warm agent's heartbeat —
// the sampled report, its message row, the trip up and the frontend's
// report callback — allocates nothing; nor does one agent dropping and
// re-making its in-band connection each round (the side channel).
func TestHeartbeatRoundTripDoesNotAllocate(t *testing.T) {
	w := newWorld(t, 3, true)
	reports := 0
	w.fe.OnPositionReport = func(int32, geo.LLA) { reports++ }
	for i := 1; i <= 3; i++ {
		w.fe.node(w.fe.idx(nodeID(i))).agent.StateReport = func() geo.LLA { return geo.LLA{Alt: 20e3} }
	}
	w.eng.Run(30)
	before := reports
	if allocs := testing.AllocsPerRun(20, func() {
		w.fe.node(w.fe.idx(nodeID(1))).agent.connected = false
		w.eng.Run(w.eng.Now() + 5)
	}); allocs != 0 {
		t.Errorf("a heartbeat round allocates %.0f times", allocs)
	}
	if reports-before != 3*21 {
		t.Errorf("%d reports over 21 rounds of 3 agents", reports-before)
	}
}

// TestInBandCommandAndResponseDoNotAllocate: a command's trip down, a
// registered agent's receive, hold to the TTE and enactment, and its
// response's trip up, in-band or over satcom, allocate nothing once
// warm; nor does the command row from Send to completion. The far
// node's agent loses the mesh while it holds the satcom leg's command,
// so it answers over satcom.
func TestInBandCommandAndResponseDoNotAllocate(t *testing.T) {
	w := newWorld(t, 3, true)
	node := nodeID(3)
	w.eng.Run(10)
	w.fe.cfg.TimeoutFastS = 3600                // outlasts any satcom response
	w.fe.Enactments = make([]Enactment, 0, 200) // the log's growth is not a row
	// Nor is the dedupe map's: its growth is amortized over commands.
	w.fe.node(w.fe.idx(node)).agent.seen = make(map[uint64]bool, 256)
	leg := func(inBand bool) {
		w.fe.heardAt(node, w.eng.Now()) // heard in-band
		w.fe.Send(Command{Node: node, Kind: KindDrain, TTE: w.fe.PickTTE([]string{node})}, nil)
		w.eng.Run(w.eng.Now() + 1) // delivered and held
		w.ib.SetPartitioned(node, !inBand)
		for n := len(w.fe.Enactments); len(w.fe.Enactments) == n; {
			w.eng.Step()
		}
		w.ib.SetPartitioned(node, false)
	}
	if allocs := testing.AllocsPerRun(50, func() { leg(true); leg(false) }); allocs != 0 {
		t.Errorf("a command and its response allocate %.0f times", allocs)
	}
	channels := map[Channel]int{}
	for _, e := range w.fe.Enactments {
		if !e.OK || e.Attempts != 1 || e.Inferred {
			t.Fatalf("enactment %+v, want a response to the first attempt", e)
		}
		channels[e.Channel]++
	}
	if channels[ChannelInBand] != 51 || channels[ChannelSatcom] != 51 {
		t.Errorf("responses by channel %v, want 51 in-band and 51 over satcom", channels)
	}
	if a := w.fe.node(w.fe.idx(node)).agent; a.Enacted != 102 {
		t.Errorf("the agent enacted %d commands, want 102", a.Enacted)
	}
}

// TestRetryCycleDoesNotAllocate: a timeout, its back-off and the
// re-dispatch run on the command row and its bound closures; the retry
// re-stamps the row's command in place. A route update waits for the
// mesh; a drain goes by satcom, riding a message row the gateway
// delivers to a node with no agent.
func TestRetryCycleDoesNotAllocate(t *testing.T) {
	for _, kind := range []Kind{KindRouteUpdate, KindDrain} {
		w := newWorld(t, 2, false) // no mesh: nobody is in-band
		w.fe.Unregister(w.fe.idx(nodeID(2)))
		w.fe.cfg.Retry.MaxAttempts = 0
		w.fe.Send(Command{Node: nodeID(2), Kind: kind, TTE: 1}, nil)
		cycle := func() {
			for r := w.fe.Retries; w.fe.Retries == r; {
				w.eng.Step()
			}
		}
		cycle()
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("%v: a retry cycle allocates %.0f times, want 0", kind, allocs)
		}
		if livePending(w.fe) != 1 || len(w.fe.freeCmds) != 0 || w.fe.Timeouts != 102 {
			t.Errorf("%v: live rows %d, free %d, timeouts %d; want 1, 0, 102", kind, livePending(w.fe), len(w.fe.freeCmds), w.fe.Timeouts)
		}
		if satcom := kind == KindDrain; satcom != (w.fe.sat.Delivered >= 101) {
			t.Errorf("%v: %d satcom deliveries", kind, w.fe.sat.Delivered)
		}
	}
}
