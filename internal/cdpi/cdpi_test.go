package cdpi

import (
	"math"
	"sort"
	"testing"

	"minkowski/internal/manet"
	"minkowski/internal/satcom"
	"minkowski/internal/sim"
)

// world wires a static mesh, fast router, satcom, and frontend.
type world struct {
	eng *sim.Engine
	net *manet.StaticNetwork
	rt  *manet.Fast
	fe  *Frontend
	ib  *InBand
}

// okEnactor immediately succeeds.
var okEnactor = func(h *Hold) { h.Done(true) }

func newWorld(t *testing.T, nodes int, connected bool) *world {
	t.Helper()
	eng := sim.New(1)
	net := manet.NewStaticNetwork()
	net.AddNode("gs-0")
	prev := "gs-0"
	for i := 1; i <= nodes; i++ {
		id := nodeID(i)
		if connected {
			net.Connect(prev, id)
		} else {
			net.AddNode(id)
		}
		prev = id
	}
	rt := manet.NewFast(eng, net, 1.0)
	ib := &InBand{Eng: eng, Router: rt, Net: net, Gateways: []string{"gs-0"}, WiredOneWayS: 0.025}
	sat := satcom.NewGateway(eng, satcom.DefaultProviders())
	fe := NewFrontend(eng, sat, ib, DefaultFrontendConfig(), DefaultAgentConfig())
	for i := 1; i <= nodes; i++ {
		fe.Register(fe.idx(nodeID(i)), okEnactor)
	}
	fe.Register(fe.idx("gs-0"), okEnactor)
	return &world{eng: eng, net: net, rt: rt, fe: fe, ib: ib}
}

// heardAt records an in-band heartbeat from a node at time at.
func (fe *Frontend) heardAt(name string, at float64) {
	n := fe.node(fe.idx(name))
	n.heardAt, n.heard = at, true
}

// dropAgents forgets every agent without stopping it.
func (fe *Frontend) dropAgents() {
	for i := range fe.nodes {
		fe.nodes[i].agent = nil
	}
}

// idx is the index of a node the test mesh holds.
func (fe *Frontend) idx(name string) int32 {
	i, ok := fe.ib.Net.IDs().Lookup(name)
	if !ok {
		panic("no node " + name)
	}
	return i
}

func nodeID(i int) string { return "hbal-00" + string(rune('0'+i)) }

func TestInBandPathAndLatency(t *testing.T) {
	w := newWorld(t, 3, true)
	w.eng.Run(10) // let agents connect & heartbeat
	path, ok := w.ib.PathTo("hbal-003")
	if !ok {
		t.Fatal("no in-band path")
	}
	if len(path) != 4 || path[0] != "gs-0" {
		t.Errorf("path = %v", path)
	}
	if !w.fe.InBandUp("hbal-003") {
		t.Error("frontend should see hbal-003 in-band after heartbeats")
	}
}

func TestSendInBandFast(t *testing.T) {
	w := newWorld(t, 3, true)
	w.eng.Run(10)
	start := w.eng.Now()
	var doneAt float64 = -1
	var result bool
	cmd := Command{Node: "hbal-003", Kind: KindRouteUpdate, TTE: w.fe.PickTTE([]string{"hbal-003"})}
	w.fe.Send(cmd, func(ok bool) { result = ok; doneAt = w.eng.Now() })
	w.eng.Run(start + 60)
	if doneAt < 0 || !result {
		t.Fatal("in-band command did not complete")
	}
	latency := doneAt - start
	// In-band TTE is 3 s; completion should be a few seconds, never
	// satcom-scale.
	if latency > 10 {
		t.Errorf("in-band enactment took %v s, want seconds", latency)
	}
	if latency < 3 {
		t.Errorf("enactment at %v s — cannot beat the 3 s TTE", latency)
	}
}

func TestPickTTEPolicy(t *testing.T) {
	w := newWorld(t, 3, true)
	w.eng.Run(10)
	inband := w.fe.PickTTE([]string{"hbal-001", "hbal-002"}) - w.eng.Now()
	if inband != w.fe.cfg.TTEInBandS {
		t.Errorf("all-in-band TTE delta = %v, want %v", inband, w.fe.cfg.TTEInBandS)
	}
	// A node that has never heartbeated forces the satcom TTE for the
	// whole intent.
	w.fe.Register(w.net.AddNode("hbal-009"), okEnactor)
	mixed := w.fe.PickTTE([]string{"hbal-001", "hbal-009"}) - w.eng.Now()
	if mixed != w.fe.cfg.TTESatcomS {
		t.Errorf("mixed TTE delta = %v, want %v (slowest recipient rules)", mixed, w.fe.cfg.TTESatcomS)
	}
}

func TestSatcomFallback(t *testing.T) {
	// Disconnected node: commands must go over satcom and still
	// complete (minutes).
	w := newWorld(t, 2, false)
	w.eng.Run(5)
	if w.fe.InBandUp("hbal-001") {
		t.Fatal("precondition: node must not be in-band")
	}
	start := w.eng.Now()
	var doneAt float64 = -1
	var ok bool
	cmd := Command{Node: "hbal-001", Kind: KindLinkEstablish, TTE: w.fe.PickTTE([]string{"hbal-001"})}
	w.fe.Send(cmd, func(o bool) { ok = o; doneAt = w.eng.Now() })
	w.eng.Run(start + 3600)
	if doneAt < 0 {
		t.Fatal("satcom command never completed")
	}
	if !ok {
		t.Fatal("satcom command failed")
	}
	latency := doneAt - start
	if latency < 60 {
		t.Errorf("satcom round trip took only %v s — satcom should be slow", latency)
	}
}

func TestRouteUpdateNeverOverSatcom(t *testing.T) {
	w := newWorld(t, 2, false) // not in-band
	w.eng.Run(5)
	var completed, ok bool
	cmd := Command{Node: "hbal-001", Kind: KindRouteUpdate}
	w.fe.Send(cmd, func(o bool) { completed, ok = true, o })
	w.eng.Run(w.eng.Now() + 600)
	if !completed {
		t.Fatal("command should complete (as a failure) after retries exhaust")
	}
	if ok {
		t.Error("route update to a satcom-only node must fail, not sneak over satcom")
	}
	if w.fe.Timeouts == 0 {
		t.Error("timeouts should have fired")
	}
}

func TestRetryOnLostInBand(t *testing.T) {
	w := newWorld(t, 3, true)
	w.eng.Run(10)
	// Cut hbal-003 off right after sending; the in-band attempt dies;
	// a retry over satcom (fresh TTE) must eventually succeed.
	cmd := Command{Node: "hbal-003", Kind: KindLinkEstablish, TTE: w.fe.PickTTE([]string{"hbal-003"})}
	var ok bool
	var completed bool
	w.fe.Send(cmd, func(o bool) { completed, ok = true, o })
	w.net.Disconnect("hbal-002", "hbal-003")
	w.rt.TopologyChanged()
	w.eng.Run(w.eng.Now() + 3600)
	if !completed {
		t.Fatal("command never completed")
	}
	if !ok {
		t.Errorf("retry over satcom should succeed (attempts=%d timeouts=%d)", w.fe.Retries, w.fe.Timeouts)
	}
	if w.fe.Retries == 0 {
		t.Error("a retry should have occurred")
	}
}

func TestSideChannelInference(t *testing.T) {
	// A link-establish to a disconnected node; when the node comes
	// in-band (as if the link came up), the frontend must infer
	// success long before the satcom response.
	w := newWorld(t, 2, false)
	w.eng.Run(5)
	start := w.eng.Now()
	var doneAt float64 = -1
	enactorConnects := func(h *Hold) {
		// Enacting the link connects the node to the mesh.
		w.net.Connect("gs-0", "hbal-001")
		w.rt.TopologyChanged()
		// The explicit response would take a satcom round trip; delay
		// it far beyond the side-channel inference.
		w.eng.After(600, func() { h.Done(true) })
	}
	w.fe.dropAgents() // reset and re-register with the connecting enactor
	w.fe.Register(w.fe.idx("hbal-001"), enactorConnects)
	cmd := Command{Node: "hbal-001", Kind: KindLinkEstablish, TTE: w.fe.PickTTE([]string{"hbal-001"})}
	w.fe.Send(cmd, func(ok bool) { doneAt = w.eng.Now() })
	w.eng.Run(start + 3600)
	if doneAt < 0 {
		t.Fatal("never completed")
	}
	var inferred bool
	for _, e := range w.fe.Enactments {
		if e.Kind == KindLinkEstablish && e.Inferred {
			inferred = true
		}
	}
	if !inferred {
		t.Error("completion should be inferred via the in-band side channel")
	}
	// Inference happens within seconds of the TTE+enact, far less
	// than TTE + satcom response (~600 s).
	if doneAt-start > w.fe.cfg.TTESatcomS+120 {
		t.Errorf("inferred completion took %v s — side channel not working", doneAt-start)
	}
}

// TestSideChannelCompletesInIDOrder: a connect completes the node's
// pending sync commands in ascending ID and leaves alone the one a
// completion's done callback sends meanwhile.
func TestSideChannelCompletesInIDOrder(t *testing.T) {
	w := newWorld(t, 1, false) // hbal-001 is not in-band: commands go by satcom
	node := nodeID(1)
	var order []int
	var follow uint64
	sync := func() Command { return Command{Node: node, Kind: KindLinkEstablish, TTE: 1e6} }
	w.fe.Send(sync(), func(bool) {
		order = append(order, 1)
		follow = w.fe.Send(sync(), func(bool) { order = append(order, 3) })
	})
	w.fe.Send(Command{Node: node, Kind: KindDrain, TTE: 1e6}, nil)
	w.fe.Send(sync(), func(bool) { order = append(order, 2) })
	w.fe.agentConnected(w.fe.idx(node))
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("completed %v, want [1 2]", order)
	}
	if livePending(w.fe) != 2 || follow == 0 {
		t.Errorf("%d live rows, want 2: the drain and the command sent during the walk", livePending(w.fe))
	}
}

func TestLateSyncCommandDropped(t *testing.T) {
	// Deliver a link-establish whose TTE has already passed: the
	// agent must ignore it.
	eng := sim.New(1)
	net := manet.NewStaticNetwork()
	net.Connect("gs-0", "hbal-001")
	rt := manet.NewFast(eng, net, 1.0)
	ib := &InBand{Eng: eng, Router: rt, Net: net, Gateways: []string{"gs-0"}, WiredOneWayS: 0.025}
	sat := satcom.NewGateway(eng, satcom.DefaultProviders())
	fe := NewFrontend(eng, sat, ib, DefaultFrontendConfig(), DefaultAgentConfig())
	enacted := 0
	a := fe.Register(fe.idx("hbal-001"), func(h *Hold) {
		enacted++
		h.Done(true)
	})
	eng.Run(500) // advance well past zero so TTE-in-the-past stays positive
	late := &Command{ID: 999, Node: "hbal-001", Kind: KindLinkEstablish, TTE: eng.Now() - 100}
	a.receive(late, ChannelSatcom)
	eng.Run(eng.Now() + 10)
	if enacted != 0 {
		t.Error("agent must drop sync commands that arrive after their TTE")
	}
	// Non-sync kinds enact even late.
	lateRoute := &Command{ID: 1000, Node: "hbal-001", Kind: KindRouteUpdate, TTE: eng.Now() - 100}
	a.receive(lateRoute, ChannelInBand)
	eng.Run(eng.Now() + 10)
	if enacted != 1 {
		t.Error("late route updates should still enact")
	}
}

func TestAgentDeduplicatesRetries(t *testing.T) {
	w := newWorld(t, 1, true)
	w.eng.Run(10)
	a := w.fe.node(w.fe.idx("hbal-001")).agent
	cmd := &Command{ID: 77, Node: "hbal-001", Kind: KindDrain, TTE: w.eng.Now() + 1}
	a.receive(cmd, ChannelInBand)
	a.receive(cmd, ChannelSatcom) // duplicate
	w.eng.Run(w.eng.Now() + 10)
	if a.Enacted != 1 {
		t.Errorf("enacted %d times, want 1", a.Enacted)
	}
}

func TestEnactmentDistributionsInBandVsSatcom(t *testing.T) {
	// Fig. 9's core claim: in-band-dominated command latencies are
	// orders of magnitude below satcom-dominated ones.
	wIn := newWorld(t, 3, true)
	wIn.eng.Run(10)
	for i := 0; i < 30; i++ {
		cmd := Command{Node: "hbal-002", Kind: KindRouteUpdate, TTE: wIn.fe.PickTTE([]string{"hbal-002"})}
		wIn.fe.Send(cmd, nil)
		wIn.eng.Run(wIn.eng.Now() + 30)
	}
	wSat := newWorld(t, 3, false)
	wSat.eng.Run(10)
	for i := 0; i < 10; i++ {
		cmd := Command{Node: "hbal-002", Kind: KindLinkEstablish, TTE: wSat.fe.PickTTE([]string{"hbal-002"})}
		wSat.fe.Send(cmd, nil)
		wSat.eng.Run(wSat.eng.Now() + 2400)
	}
	med := func(fe *Frontend, k Kind) float64 {
		var ls []float64
		for _, e := range fe.Enactments {
			if e.Kind == k && e.OK {
				ls = append(ls, e.Latency())
			}
		}
		sort.Float64s(ls)
		return quantile(ls, 0.5)
	}
	mIn := med(wIn.fe, KindRouteUpdate)
	mSat := med(wSat.fe, KindLinkEstablish)
	if !(mIn < 15) {
		t.Errorf("in-band median = %v s, want seconds", mIn)
	}
	if !(mSat > 120) {
		t.Errorf("satcom median = %v s, want minutes", mSat)
	}
	if mSat < 10*mIn {
		t.Errorf("satcom (%v) should dwarf in-band (%v)", mSat, mIn)
	}
}

func BenchmarkInBandCommand(b *testing.B) {
	w := newWorld(&testing.T{}, 3, true)
	w.eng.Run(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmd := Command{Node: "hbal-002", Kind: KindRouteUpdate, TTE: w.fe.PickTTE([]string{"hbal-002"})}
		w.fe.Send(cmd, nil)
		w.eng.Run(w.eng.Now() + 10)
	}
}

// quantile is the nearest-rank q-quantile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
