package manet_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"minkowski/internal/cdpi"
	"minkowski/internal/flight"
	"minkowski/internal/geo"
	"minkowski/internal/manet"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/rf"
	"minkowski/internal/sim"
	"minkowski/internal/weather"
	"minkowski/internal/wind"
)

// --- the reference: Tier 1 as it was before the dense node-ID space ----
//
// refFast, refPathFrom and refInBand are the string-keyed router, walk
// and in-band plane that manet.Fast, Fast.AppendPath and cdpi.InBand
// replaced, kept here verbatim (nested next-hop maps, a visited map per
// BFS, a fresh []string per path) as the oracle of TestDenseTier1MatchesReference.
// They use only the node-ID methods of manet.Network.

type refFast struct {
	eng          *sim.Engine
	net          manet.Network
	convergenceS float64
	tables       map[string]map[string]string // src -> dst -> next hop
	dirtyAt      float64
	recomputes   int
}

func newRefFast(eng *sim.Engine, net manet.Network, convergenceS float64) *refFast {
	f := &refFast{eng: eng, net: net, convergenceS: convergenceS, dirtyAt: -1}
	f.recompute()
	return f
}

func (f *refFast) Name() string       { return "reference" }
func (f *refFast) Start()             {}
func (f *refFast) Stats() manet.Stats { return manet.Stats{} }

func (f *refFast) TopologyChanged() {
	if f.dirtyAt < 0 {
		f.dirtyAt = f.eng.Now()
	}
}

func (f *refFast) recompute() {
	f.recomputes++
	f.tables = make(map[string]map[string]string)
	for _, src := range f.net.Nodes() {
		f.tables[src] = bfsNextHops(f.net, src)
	}
}

func bfsNextHops(net manet.Network, src string) map[string]string {
	out := map[string]string{}
	visited := map[string]bool{src: true}
	type qe struct{ node, via string }
	var queue []qe
	for _, nb := range net.Neighbors(src) {
		visited[nb] = true
		out[nb] = nb
		queue = append(queue, qe{nb, nb})
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, m := range net.Neighbors(cur.node) {
			if visited[m] {
				continue
			}
			visited[m] = true
			out[m] = cur.via
			queue = append(queue, qe{m, cur.via})
		}
	}
	return out
}

func (f *refFast) NextHop(src, dst string) (string, bool) {
	if f.dirtyAt >= 0 && f.eng.Now() >= f.dirtyAt+f.convergenceS {
		f.recompute()
		f.dirtyAt = -1
	}
	nh, ok := f.tables[src][dst]
	if !ok || !f.net.Adjacent(src, nh) {
		return "", false
	}
	return nh, true
}

func refPathFrom(r manet.Router, src, dst string) ([]string, bool) {
	if src == dst {
		return []string{src}, true
	}
	path := []string{src}
	cur := src
	for i := 0; i < 64; i++ {
		nh, ok := r.NextHop(cur, dst)
		if !ok || slices.Contains(path, nh) {
			return nil, false
		}
		path = append(path, nh)
		if nh == dst {
			return path, true
		}
		cur = nh
	}
	return nil, false
}

type refInBand struct {
	router       manet.Router
	net          manet.Network
	gateways     []string
	wiredOneWayS float64
	partitioned  map[string]bool
}

// path is the old PathTo (gateway → node) or, with up, PathUp.
func (ib *refInBand) path(node string, up bool) ([]string, bool) {
	if ib.partitioned[node] {
		return nil, false
	}
	var best []string
	for _, gw := range ib.gateways {
		if ib.partitioned[gw] {
			continue
		}
		if gw == node {
			return []string{gw}, true
		}
		src, dst := gw, node
		if up {
			src, dst = node, gw
		}
		p, ok := refPathFrom(ib.router, src, dst)
		if ok && !slices.ContainsFunc(p, func(n string) bool { return ib.partitioned[n] }) {
			if best == nil || len(p) < len(best) {
				best = p
			}
		}
	}
	return best, best != nil
}

func (ib *refInBand) latency(path []string) float64 {
	d := ib.wiredOneWayS
	for i := 1; i < len(path); i++ {
		d += ib.net.Latency(path[i-1], path[i])
	}
	return d
}

// --- the worlds --------------------------------------------------------

// world is a random mutable topology under both stacks.
type world struct {
	name     string
	steps    int
	eng      *sim.Engine
	net      manet.Network
	gateways []string
	// names lists every node ID ever seen, departed ones included.
	names func() []string
	// mutate applies one random topology event and reports whether a
	// production caller would tell the router (link and deaf-edge changes
	// do; power and membership changes do not).
	mutate func(rng *rand.Rand) (op string, notify bool)
	// onLinkChange is called by the world when a link comes up or goes
	// down on its own (fabric world only).
	onLinkChange func()
}

// staticWorld: 4 gateways and 12 balloons; edges, one-way edges and
// late joiners at random.
func staticWorld(seed int64) *world {
	net := manet.NewStaticNetwork()
	w := &world{name: "static", steps: 600, eng: sim.New(seed), net: net}
	var ids []string
	for i := 0; i < 4; i++ {
		w.gateways = append(w.gateways, fmt.Sprintf("gs-%d", i))
	}
	ids = append(ids, w.gateways...)
	// Balloons are named so that name order differs from registration
	// (index) order: tie-breaks must follow names.
	for i := 0; i < 12; i++ {
		ids = append(ids, fmt.Sprintf("hbal-%03d", (i*7)%12))
	}
	for _, id := range ids {
		net.AddNode(id)
	}
	w.names = func() []string { return ids }
	w.mutate = func(rng *rand.Rand) (string, bool) {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if a == b {
			return "nothing", false
		}
		switch k := rng.Intn(20); {
		case k < 8:
			net.Connect(a, b)
			return "connect " + a + " " + b, true
		case k < 11:
			net.Disconnect(a, b)
			return "disconnect " + a + " " + b, true
		case k < 14:
			net.ConnectOneWay(a, b)
			return "one-way " + a + ">" + b, true
		case k < 18:
			net.DisconnectOneWay(a, b)
			return "deafen " + a + ">" + b, true
		default:
			// A late joiner wired to an existing node; the router hears of
			// the link only half the time, so the other half it stays beyond
			// the table until some later change.
			id := fmt.Sprintf("late-%02d", len(ids))
			ids = append(ids, id)
			net.Connect(id, a)
			return "join " + id + " at " + a, rng.Intn(2) == 0
		}
	}
	return w
}

// fabricWorld: a real radio fabric (random failures off) under a real
// fleet: 3 ground stations below a 4×3 balloon grid, links established
// and withdrawn at random, deaf directions, power-downs and recycled
// vehicles (a departed node and a joined one).
func fabricWorld(seed int64) *world {
	eng := sim.New(seed)
	wcfg := weather.DefaultConfig()
	wcfg.CellSpawnPerHour = 0
	cfg := radio.DefaultConfig()
	cfg.FlakeProb, cfg.PersistentFailProb, cfg.SideLobeProb = 0, 0, 0
	cfg.GlitchProbPerCheck, cfg.TrackingNoiseDB = 0, 0
	cfg.B2GUnstableBase, cfg.B2GStableHazard = 0, 0

	fcfg := flight.DefaultConfig(geo.LLADeg(0, 37.5, 0))
	fcfg.FleetSize = 0
	fcfg.RecycleRadiusM = 1e9
	fms := flight.NewFMS(fcfg, wind.NewField(wind.DefaultConfig()))
	launched := 0
	launch := func(slot int) *flight.Balloon {
		launched++
		return &flight.Balloon{
			// Descending names: name order is the reverse of index order.
			ID:         fmt.Sprintf("hbal-%03d", 500-launched),
			Pos:        geo.LLADeg(-1+float64(slot/4), 36+float64(slot%4), 18000),
			TargetAltM: 18000,
		}
	}
	for slot := 0; slot < 12; slot++ {
		fms.Fleet = append(fms.Fleet, launch(slot))
	}
	var grounds []*platform.Node
	w := &world{name: "fabric", steps: 1500, eng: eng}
	for i, pos := range []geo.LLA{geo.LLADeg(-0.6, 36.4, 1600), geo.LLADeg(0.2, 37.6, 1600), geo.LLADeg(0.7, 38.7, 1600)} {
		g := platform.NewGroundStation(fmt.Sprintf("gs-%d", i), pos, nil)
		grounds = append(grounds, g)
		w.gateways = append(w.gateways, g.ID)
	}
	fleet := platform.NewFleet(fms, grounds)
	const noon = 12 * 3600 // every payload powers up at a fleet step
	fleet.Step(noon, 0)
	fab := radio.NewFabric(eng, weather.NewField(wcfg), fleet.IDs, cfg)
	fnet := &manet.FabricNet{Fabric: fab, Fleet: fleet}
	w.net = fnet
	fab.OnUp = func(*radio.Link) { w.onLinkChange() }
	fab.OnDown = func(*radio.Link, radio.Reason) { w.onLinkChange() }
	w.names = func() []string {
		var out []string
		for i := 0; i < fleet.IDs.Len(); i++ {
			out = append(out, fleet.IDs.Name(int32(i)))
		}
		return out
	}
	w.mutate = func(rng *rand.Rand) (string, bool) {
		nodes := fleet.Nodes()
		switch k := rng.Intn(40); {
		case k < 18:
			// A few tries at a free pair, so the mesh stays dense enough
			// to route over; the router hears of the link at OnUp.
			xs := fleet.Transceivers()
			for try := 0; try < 8; try++ {
				xa, xb := xs[rng.Intn(len(xs))], xs[rng.Intn(len(xs))]
				if fab.Establish(xa, xb, rf.EBandChannels()[rng.Intn(2)], 1) != nil {
					return "establish " + xa.ID + " " + xb.ID, false
				}
			}
		case k < 21:
			if live := fab.Links(); len(live) > 0 {
				l := live[rng.Intn(len(live))]
				fab.Withdraw(l.ID)
				return "withdraw " + l.ID.String(), false
			}
		case k < 27:
			if up := fab.UpLinks(); len(up) > 0 {
				a, b := up[rng.Intn(len(up))].Nodes()
				if rng.Intn(2) == 0 {
					a, b = b, a
				}
				blocked := !fnet.Deaf(a, b)
				fnet.SetDeaf(a, b, blocked)
				return fmt.Sprintf("deaf %s>%s %v", a, b, blocked), true
			}
		case k < 29:
			n := nodes[len(grounds)+rng.Intn(len(nodes)-len(grounds))]
			n.Power.CommsOn = false // the next link check fails its links
			return "power down " + n.ID, false
		case k < 31:
			fleet.Step(noon, 0)
			return "power up all", false
		case k == 31:
			// Recycle a vehicle the way core.stepFleet sees it: the old node
			// leaves (its links fail), a new one joins at the same slot.
			slot := rng.Intn(len(fms.Fleet))
			fms.Fleet[slot] = launch(slot)
			fleet.Step(noon, 0)
			_, left := fleet.DrainEvents()
			for _, n := range left {
				fab.FailNode(n.ID, radio.ReasonGeometry)
			}
			return "recycle " + left[0].ID + " -> " + fms.Fleet[slot].ID, false
		}
		return "nothing", false
	}
	return w
}

// --- the property ------------------------------------------------------

// TestDenseTier1MatchesReference drives both worlds through random
// topology changes, partitions and time steps short enough to land
// inside the router's stale window, and after every one of them asks
// the dense stack (manet.Fast by index and by node ID, Fast.AppendPath,
// cdpi.InBand) and the reference every question there is. Next hops,
// full paths (so hop counts and the chosen gateway), the three in-band
// verdicts and the delivery latency must be equal; so must the number
// of table rebuilds at the end.
//
// Mutation-checked: letting InBand's candidate buffer share storage with
// the chosen path after the gw == node early return, breaking ties on
// index order in StaticNetwork, dropping the per-hop adjacency re-check
// and skipping the partition filter each fail it within the first seed.
func TestDenseTier1MatchesReference(t *testing.T) {
	for _, build := range []func(int64) *world{staticWorld, fabricWorld} {
		for seed := int64(1); seed <= 3; seed++ {
			w := build(seed)
			t.Run(fmt.Sprintf("%s/seed%d", w.name, seed), func(t *testing.T) { runOracle(t, w, seed) })
		}
	}
}

func runOracle(t *testing.T, w *world, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dense := manet.NewFast(w.eng, w.net, 2.0)
	ref := newRefFast(w.eng, w.net, 2.0)
	w.onLinkChange = func() { dense.TopologyChanged(); ref.TopologyChanged() }
	ib := &cdpi.InBand{Eng: w.eng, Router: dense, Net: w.net, Gateways: w.gateways, WiredOneWayS: 0.025}
	rib := &refInBand{router: ref, net: w.net, gateways: w.gateways, wiredOneWayS: 0.025, partitioned: map[string]bool{}}
	ids := w.net.IDs()

	var buf []int32
	var routed, unrouted, viaOtherGw, sends int
	var isolated []string
	check := func(when string) {
		names := append([]string{"no-such-node"}, w.names()...)
		for _, src := range names {
			for _, dst := range names {
				wantNH, wantOK := ref.NextHop(src, dst)
				gotNH, gotOK := dense.NextHop(src, dst)
				if gotNH != wantNH || gotOK != wantOK {
					t.Fatalf("%s: NextHop(%s, %s) = %q, %v; reference %q, %v", when, src, dst, gotNH, gotOK, wantNH, wantOK)
				}
				wantPath, wantOK := refPathFrom(ref, src, dst)
				s, oks := ids.Lookup(src)
				d, okd := ids.Lookup(dst)
				if oks && okd {
					buf, gotOK = dense.AppendPath(buf[:0], s, d)
					gotPath := make([]string, 0, len(buf))
					for _, i := range buf {
						gotPath = append(gotPath, ids.Name(i))
					}
					if gotOK != wantOK || (gotOK && !slices.Equal(gotPath, wantPath)) {
						t.Fatalf("%s: AppendPath(%s, %s) = %v, %v; reference %v, %v", when, src, dst, gotPath, gotOK, wantPath, wantOK)
					}
				}
				if viaID, ok := manet.PathFrom(dense, src, dst); ok != wantOK || !slices.Equal(viaID, wantPath) {
					t.Fatalf("%s: PathFrom(%s, %s) = %v, %v; reference %v, %v", when, src, dst, viaID, ok, wantPath, wantOK)
				}
			}
		}
		// The two forms of the Network agree, and neighbours come in
		// node-ID order whatever order the nodes were registered in.
		var nodeIDs []string
		for _, i := range w.net.AppendNodes(nil) {
			nodeIDs = append(nodeIDs, ids.Name(i))
		}
		if w.name == "static" {
			slices.Sort(nodeIDs) // it lists by name, the fleet grounds-first
		}
		if !slices.Equal(nodeIDs, w.net.Nodes()) {
			t.Fatalf("%s: AppendNodes = %v, Nodes = %v", when, nodeIDs, w.net.Nodes())
		}
		for _, a := range names[1:] {
			ai, _ := ids.Lookup(a)
			var nbs []string
			for _, i := range w.net.NeighborsAt(ai) {
				nbs = append(nbs, ids.Name(i))
			}
			if !slices.IsSorted(nbs) || !slices.Equal(nbs, w.net.Neighbors(a)) {
				t.Fatalf("%s: NeighborsAt(%s) = %v, Neighbors = %v", when, a, nbs, w.net.Neighbors(a))
			}
			for _, b := range names[1:] {
				bi, _ := ids.Lookup(b)
				adj := slices.Contains(nbs, b)
				if w.net.AdjacentAt(ai, bi) != adj || w.net.Adjacent(a, b) != adj {
					t.Fatalf("%s: AdjacentAt/Adjacent(%s, %s) disagree with neighbours %v", when, a, b, nbs)
				}
				if adj && w.net.LatencyAt(ai, bi) != w.net.Latency(a, b) {
					t.Fatalf("%s: LatencyAt(%s, %s) differs from Latency", when, a, b)
				}
			}
		}
		for _, node := range names {
			for _, up := range []bool{false, true} {
				want, wantOK := rib.path(node, up)
				got, gotOK := ib.PathTo(node)
				verdict := ib.Connected(node)
				if up {
					got, gotOK = ib.PathUp(node)
					verdict = ib.RoutedUp(node)
					if ib.ConnectedUp(node) != verdict {
						t.Fatalf("%s: ConnectedUp(%s) disagrees with RoutedUp", when, node)
					}
				}
				if gotOK != wantOK || verdict != wantOK || !slices.Equal(got, want) {
					t.Fatalf("%s: in-band path(%s, up=%v) = %v, %v (verdict %v); reference %v, %v",
						when, node, up, got, gotOK, verdict, want, wantOK)
				}
				if !wantOK {
					unrouted++
					continue
				}
				routed++
				gw := want[0]
				if up {
					gw = want[len(want)-1]
				}
				if gw != w.gateways[0] && len(want) > 1 {
					viaOtherGw++
				}
			}
		}
	}

	for step := 0; step < w.steps; step++ {
		var op string
		switch k := rng.Intn(20); {
		case k < 9:
			var notify bool
			if op, notify = w.mutate(rng); notify {
				w.onLinkChange()
			}
		case k < 11:
			// Isolate a live node or gateway, or heal one: at most three
			// at a time, so that something is left to route.
			nodes := w.net.Nodes()
			node := nodes[rng.Intn(len(nodes))]
			if len(isolated) == 3 {
				node = isolated[0]
			}
			if at := slices.Index(isolated, node); at >= 0 {
				isolated = slices.Delete(isolated, at, at+1)
			} else {
				isolated = append(isolated, node)
			}
			ib.SetPartitioned(node, slices.Contains(isolated, node))
			rib.partitioned[node] = slices.Contains(isolated, node)
			op = fmt.Sprintf("partition %s %v", node, rib.partitioned[node])
		case k < 13:
			// Deliver one message each way and time it: the only window
			// on the latency InBand sums from its walk.
			names := w.names()
			node := names[rng.Intn(len(names))]
			up := rng.Intn(2) == 0
			op = fmt.Sprintf("send %s up=%v", node, up)
			want := rib.wiredOneWayS
			if p, ok := rib.path(node, up); ok {
				want = rib.latency(p)
				sends++
			}
			t0, arrived := w.eng.Now(), -1.0
			send := ib.Send
			if up {
				send = ib.SendUp
			}
			send(node, 100, func(bool) { arrived = w.eng.Now() })
			w.eng.Run(t0 + want)
			if arrived != t0+want { // exact: the same additions in the same order
				t.Fatalf("step %d %s: arrived at %v, reference latency %v from %v", step, op, arrived, want, t0)
			}
		default:
			// Mostly shorter than the 2 s convergence delay.
			dt := []float64{0, 0.4, 0.9, 1.5, 2.5, 12, 45}[rng.Intn(7)]
			op = fmt.Sprintf("advance %.1fs", dt)
			w.eng.Run(w.eng.Now() + dt)
		}
		check(fmt.Sprintf("%s seed %d step %d after %s", w.name, seed, step, op))

		if _, ok := dense.NextHopAt(int32(ids.Len()), 0); ok {
			t.Fatalf("step %d: an index beyond the table has a next hop", step)
		}
		if dense.Recomputes != ref.recomputes {
			t.Fatalf("step %d after %s: %d rebuilds, reference %d", step, op, dense.Recomputes, ref.recomputes)
		}
	}
	t.Logf("%s seed %d: %d routed / %d unrouted in-band answers, %d over a gateway other than the first, %d timed sends, %d rebuilds",
		w.name, seed, routed, unrouted, viaOtherGw, sends, dense.Recomputes)
	if routed < 2000 || unrouted < 2000 || viaOtherGw < 200 || sends < 10 || dense.Recomputes < 20 {
		t.Errorf("%s seed %d: weak coverage", w.name, seed)
	}
}
