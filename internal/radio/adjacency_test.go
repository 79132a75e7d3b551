package radio

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"minkowski/internal/flight"
	"minkowski/internal/geo"
	"minkowski/internal/platform"
	"minkowski/internal/rf"
	"minkowski/internal/sim"
	"minkowski/internal/weather"
)

// sweep is the brute-force oracle the index replaced: every query
// answered by a pass over the links map.
type sweep struct{ f *Fabric }

func (s sweep) links(keep func(*Link) bool) []*Link {
	var out []*Link
	for _, l := range s.f.links {
		if keep(l) {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.A != out[j].ID.A {
			return out[i].ID.A < out[j].ID.A
		}
		return out[i].ID.B < out[j].ID.B
	})
	return out
}

func (s sweep) upLinks() []*Link { return s.links((*Link).Up) }

func (s sweep) neighbors(node string) []string {
	seen := map[string]bool{}
	for _, l := range s.upLinks() {
		a, b := l.Nodes()
		if a == node {
			seen[b] = true
		} else if b == node {
			seen[a] = true
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// linkBetween returns the lowest-ID up link joining the two nodes.
func (s sweep) linkBetween(nodeA, nodeB string) *Link {
	for _, l := range s.upLinks() {
		a, b := l.Nodes()
		if (a == nodeA && b == nodeB) || (a == nodeB && b == nodeA) {
			return l
		}
	}
	return nil
}

// checkIndex compares every indexed read against the sweep.
func checkIndex(t *testing.T, f *Fabric, nodes []*platform.Node, when string) {
	t.Helper()
	s := sweep{f}
	if got, want := f.Links(), s.links(func(*Link) bool { return true }); !slices.Equal(got, want) {
		t.Fatalf("%s: Links = %v, sweep says %v", when, got, want)
	}
	up := s.upLinks()
	if got := f.UpLinks(); !slices.Equal(got, up) {
		t.Fatalf("%s: UpLinks = %v, sweep says %v", when, got, up)
	}
	if got := f.UpCount(); got != len(up) {
		t.Fatalf("%s: UpCount = %d, sweep says %d", when, got, len(up))
	}
	ids := []string{"no-such-node"}
	for _, n := range nodes {
		ids = append(ids, n.ID)
	}
	for _, a := range ids {
		want := s.neighbors(a)
		if got := f.Neighbors(a); !slices.Equal(got, want) {
			t.Fatalf("%s: Neighbors(%s) = %v, sweep says %v", when, a, got, want)
		}
		if got := f.NodeUp(a); got != (len(want) > 0) {
			t.Fatalf("%s: NodeUp(%s) = %v with neighbours %v", when, a, got, want)
		}
		for _, b := range ids {
			wantLink := s.linkBetween(a, b)
			got, ok := f.LinkBetween(a, b)
			if got != wantLink || ok != (wantLink != nil) {
				t.Fatalf("%s: LinkBetween(%s, %s) = %v, %v; sweep says %v", when, a, b, got, ok, wantLink)
			}
			if f.Adjacent(a, b) != ok {
				t.Fatalf("%s: Adjacent(%s, %s) = %v, LinkBetween says %v", when, a, b, !ok, ok)
			}
		}
	}
	// The same reads by node index.
	for _, a := range nodes {
		var got []string
		for _, i := range f.NeighborsAt(a.Index) {
			got = append(got, f.ids.Name(i))
		}
		if want := s.neighbors(a.ID); !slices.Equal(got, want) {
			t.Fatalf("%s: NeighborsAt(%s) = %v, sweep says %v", when, a.ID, got, want)
		}
		for _, b := range nodes {
			wantLink := s.linkBetween(a.ID, b.ID)
			if got, ok := f.LinkAt(a.Index, b.Index); got != wantLink || ok != (wantLink != nil) || f.AdjacentAt(a.Index, b.Index) != ok {
				t.Fatalf("%s: LinkAt(%s, %s) = %v, %v; sweep says %v", when, a.ID, b.ID, got, ok, wantLink)
			}
		}
	}
}

// meshWorld builds a cluster of balloons about 110 km apart and two
// ground stations under it, all powered, in clear skies.
func meshWorld(seed int64, cfg Config) (*sim.Engine, *Fabric, []*platform.Node) {
	eng := sim.New(seed)
	wcfg := weather.DefaultConfig()
	wcfg.CellSpawnPerHour = 0
	fab := NewFabric(eng, weather.NewField(wcfg), platform.NewIDs(), cfg)
	var nodes []*platform.Node
	for i := 0; i < 6; i++ {
		b := &flight.Balloon{
			ID:  fmt.Sprintf("hbal-%03d", i+1),
			Pos: geo.LLADeg(-1+float64(i/3), 36.5+float64(i%3), 18000),
		}
		n := platform.NewBalloonNode(b)
		n.Power.CommsOn = true
		n.Power.BatteryWh = platform.BatteryCapacityWh
		nodes = append(nodes, n)
	}
	nodes = append(nodes,
		platform.NewGroundStation("gs-0", geo.LLADeg(-0.8, 36.8, 1600), nil),
		platform.NewGroundStation("gs-1", geo.LLADeg(-0.3, 38.1, 1600), nil))
	// Balloons first: index order is not node-ID order.
	for _, n := range nodes {
		fab.ids.Register(n)
	}
	return eng, fab, nodes
}

// TestIndexMatchesSweep drives random establish / withdraw / node
// failure / power loss / time steps and checks the index against the
// sweep after every one of them, and from inside every OnUp and OnDown.
func TestIndexMatchesSweep(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := DefaultConfig()
		cfg.PersistentFailProb = 0.1
		cfg.FlakeProb = 0.1
		eng, fab, nodes := meshWorld(seed, cfg)
		rng := rand.New(rand.NewSource(seed))
		var xcvrs []*platform.Transceiver
		for _, n := range nodes {
			xcvrs = append(xcvrs, n.Xcvrs...)
		}
		ups, downs, maxUp, parallel := 0, 0, 0, 0
		fab.OnUp = func(l *Link) {
			ups++
			a, b := l.Nodes()
			if !l.Up() || !fab.Adjacent(a, b) || !fab.Adjacent(b, a) {
				t.Fatalf("OnUp(%v): link not yet indexed", l)
			}
			checkIndex(t, fab, nodes, fmt.Sprintf("seed %d in OnUp(%v)", seed, l))
		}
		fab.OnDown = func(l *Link, r Reason) {
			downs++
			if slices.Contains(fab.UpLinks(), l) {
				t.Fatalf("OnDown(%v): link still indexed", l)
			}
			checkIndex(t, fab, nodes, fmt.Sprintf("seed %d in OnDown(%v, %v)", seed, l, r))
		}
		for step := 0; step < 3000; step++ {
			var op string
			switch k := rng.Intn(40); {
			case k < 14:
				xa, xb := xcvrs[rng.Intn(len(xcvrs))], xcvrs[rng.Intn(len(xcvrs))]
				op = fmt.Sprintf("establish %s %s", xa.ID, xb.ID)
				fab.Establish(xa, xb, rf.EBandChannels()[rng.Intn(2)], 1+rng.Intn(2))
			case k < 16:
				if live := fab.Links(); len(live) > 0 {
					l := live[rng.Intn(len(live))]
					op = fmt.Sprintf("withdraw %v", l)
					fab.Withdraw(l.ID)
				}
			case k == 16:
				n := nodes[rng.Intn(len(nodes))]
				op = "fail " + n.ID
				fab.FailNode(n.ID, ReasonGeometry)
			case k == 17:
				// Power loss is seen by the next periodic check; the node
				// comes back a minute later.
				n := nodes[rng.Intn(6)]
				n.Power.CommsOn = false
				eng.After(60, func() { n.Power.CommsOn = true })
				op = "power down " + n.ID
			default:
				dt := 1 + rng.Float64()*60
				op = fmt.Sprintf("advance %.0fs", dt)
				eng.Run(eng.Now() + dt)
			}
			checkIndex(t, fab, nodes, fmt.Sprintf("seed %d step %d after %s", seed, step, op))
			maxUp = max(maxUp, fab.UpCount())
			for _, l := range fab.UpLinks() {
				a, b := l.Nodes()
				if first, _ := fab.LinkBetween(a, b); first != l {
					parallel++
				}
			}
		}
		t.Logf("seed %d: %d ups, %d downs, at most %d links up at once, %d parallel-link sightings", seed, ups, downs, maxUp, parallel)
		if ups < 50 || downs < 50 || maxUp < 5 {
			t.Errorf("seed %d: weak coverage: %d ups, %d downs, at most %d links up at once", seed, ups, downs, maxUp)
		}
		if parallel == 0 {
			t.Errorf("seed %d: no step ever had two up links between one node pair", seed)
		}
	}
}

// TestLinkBetweenParallelLinks pins which link represents a node pair
// joined by two transceiver pairs: the lowest LinkID.
func TestLinkBetweenParallelLinks(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	n1, n2 := nodes[0], nodes[1]
	// Established in descending ID order, so "first up" is not the answer.
	high := fab.Establish(n1.Xcvrs[1], n2.Xcvrs[2], rf.EBandChannels()[1], 1)
	eng.Run(150)
	low := fab.Establish(n1.Xcvrs[0], n2.Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(400)
	if !high.Up() || !low.Up() {
		t.Fatalf("precondition: both links up (low %v, high %v)", low, high)
	}
	if low.ID.Compare(high.ID) >= 0 {
		t.Fatalf("precondition: %v must sort before %v", low.ID, high.ID)
	}
	for _, pair := range [][2]string{{n1.ID, n2.ID}, {n2.ID, n1.ID}} {
		if got, ok := fab.LinkBetween(pair[0], pair[1]); !ok || got != low {
			t.Errorf("LinkBetween(%s, %s) = %v, want the lowest ID %v", pair[0], pair[1], got, low)
		}
	}
	if nb := fab.Neighbors(n1.ID); !slices.Equal(nb, []string{n2.ID}) {
		t.Errorf("Neighbors(%s) = %v, want the peer once", n1.ID, nb)
	}
	fab.Withdraw(low.ID)
	if got, ok := fab.LinkBetween(n1.ID, n2.ID); !ok || got != high {
		t.Errorf("after withdrawing %v: LinkBetween = %v, want %v", low, got, high)
	}
	if !fab.Adjacent(n2.ID, n1.ID) || fab.UpCount() != 1 {
		t.Errorf("after withdrawing one of two: adjacent=%v up=%d", fab.Adjacent(n2.ID, n1.ID), fab.UpCount())
	}
	fab.Withdraw(high.ID)
	if fab.Adjacent(n1.ID, n2.ID) || fab.NodeUp(n1.ID) || fab.NodeUp(n2.ID) || fab.UpCount() != 0 {
		t.Error("after withdrawing both: the pair must be gone from the index")
	}
}

// TestNeighborsViewSurvivesChange: a slice Neighbors handed out keeps
// its contents when the mesh changes under it.
func TestNeighborsViewSurvivesChange(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	l := fab.Establish(nodes[0].Xcvrs[1], nodes[2].Xcvrs[0], rf.EBandChannels()[1], 1)
	eng.Run(300)
	view := fab.Neighbors("hbal-001")
	want := slices.Clone(view)
	fab.Withdraw(l.ID)
	if !slices.Equal(view, want) {
		t.Errorf("held view changed to %v, was %v", view, want)
	}
	if nb := fab.Neighbors("hbal-001"); !slices.Equal(nb, []string{"hbal-002"}) {
		t.Errorf("fresh view = %v", nb)
	}
}
