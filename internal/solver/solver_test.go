package solver

import (
	"math"
	"testing"

	"minkowski/internal/flight"
	"minkowski/internal/geo"
	"minkowski/internal/linkeval"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/rf"
)

// clearSky reports no rain.
type clearSky struct{}

func (clearSky) EstimateRain(geo.LLA) (float64, bool) { return 0, true }
func (clearSky) AgeSeconds() float64                  { return 0 }

// indexed registers nodes in one fresh IDs table, as a Fleet does: the
// solver numbers a node by its Index.
func indexed(nodes ...*platform.Node) []*platform.Node {
	ids := platform.NewIDs()
	for _, n := range nodes {
		ids.Register(n)
	}
	return nodes
}

func mkBalloon(id string, latDeg, lonDeg float64) *platform.Node {
	b := &flight.Balloon{ID: id, Pos: geo.LLADeg(latDeg, lonDeg, 18000)}
	n := platform.NewBalloonNode(b)
	n.Power.CommsOn = true
	return n
}

// world builds gs-0 plus a line of balloons 150 km apart, and returns
// the candidate graph.
func world(nBalloons int) (nodes []*platform.Node, candidates []*linkeval.Report) {
	gs := platform.NewGroundStation("gs-0", geo.LLADeg(-1.3, 36.6, 1600), nil)
	nodes = append(nodes, gs)
	for i := 0; i < nBalloons; i++ {
		id := "hbal-00" + string(rune('1'+i))
		nodes = append(nodes, mkBalloon(id, -1, 36.8+1.35*float64(i)))
	}
	indexed(nodes...)
	var xs []*platform.Transceiver
	for _, n := range nodes {
		xs = append(xs, n.Xcvrs...)
	}
	e := linkeval.New(linkeval.DefaultConfig(), clearSky{}, nil)
	return nodes, e.CandidateGraph(xs, 0)
}

func backhaulRequests(nodes []*platform.Node) []Request {
	var out []Request
	for _, n := range nodes {
		if n.Kind == platform.KindBalloon {
			out = append(out, Request{
				ID: "backhaul/" + n.ID, Src: n.ID, MinBitrateBps: 50e6,
			})
		}
	}
	return out
}

func TestSolveConnectsAllBalloons(t *testing.T) {
	nodes, cands := world(4)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	s := New(DefaultConfig())
	plan := s.Solve(Input{
		Candidates: cands,
		Requests:   backhaulRequests(nodes),
		Existing:   map[radio.LinkID]bool{},
		Gateways:   []string{"gs-0"},
	})
	if len(plan.Unsatisfied) != 0 {
		t.Fatalf("unsatisfied requests: %v", plan.Unsatisfied)
	}
	if len(plan.Routes) != 4 {
		t.Errorf("routes = %d, want 4", len(plan.Routes))
	}
	// Every route must terminate at the gateway.
	for id, path := range plan.Routes {
		if path[len(path)-1] != "gs-0" {
			t.Errorf("route %s ends at %s", id, path[len(path)-1])
		}
	}
	if plan.Utility != 4*50e6 {
		t.Errorf("utility = %v", plan.Utility)
	}
}

func TestTransceiverPairedOnce(t *testing.T) {
	nodes, cands := world(4)
	s := New(DefaultConfig())
	plan := s.Solve(Input{
		Candidates: cands, Requests: backhaulRequests(nodes),
		Existing: map[radio.LinkID]bool{}, Gateways: []string{"gs-0"},
	})
	used := map[string]int{}
	for _, c := range plan.Links {
		used[c.Report.XA.ID]++
		used[c.Report.XB.ID]++
	}
	for x, n := range used {
		if n > 1 {
			t.Errorf("transceiver %s tasked %d times", x, n)
		}
	}
}

func TestChannelNonInterference(t *testing.T) {
	nodes, cands := world(4)
	s := New(DefaultConfig())
	plan := s.Solve(Input{
		Candidates: cands, Requests: backhaulRequests(nodes),
		Existing: map[radio.LinkID]bool{}, Gateways: []string{"gs-0"},
	})
	perNode := map[string]map[int]int{}
	for _, c := range plan.Links {
		for _, nid := range []string{c.Report.XA.Node.ID, c.Report.XB.Node.ID} {
			if perNode[nid] == nil {
				perNode[nid] = map[int]int{}
			}
			perNode[nid][c.Channel.ID]++
		}
	}
	for nid, chans := range perNode {
		for ch, n := range chans {
			if n > 1 {
				t.Errorf("node %s reuses channel %d on %d links", nid, ch, n)
			}
		}
	}
}

func TestHysteresisKeepsExistingLinks(t *testing.T) {
	nodes, cands := world(4)
	s := New(DefaultConfig())
	in := Input{
		Candidates: cands, Requests: backhaulRequests(nodes),
		Existing: map[radio.LinkID]bool{}, Gateways: []string{"gs-0"},
	}
	plan1 := s.Solve(in)
	// Feed plan1's links back as "existing": the second solve must
	// keep them all (nothing changed).
	in.Existing = chosenIDs(plan1)
	plan2 := s.Solve(in)
	ids1, ids2 := chosenIDs(plan1), chosenIDs(plan2)
	kept := 0
	for id := range ids2 {
		if ids1[id] {
			kept++
		}
	}
	if kept < len(ids1)*3/4 {
		t.Errorf("only %d/%d links kept across identical solves — hysteresis broken", kept, len(ids1))
	}
	for _, c := range plan2.Links {
		if ids1[c.Report.ID] && !c.KeptFromPrevious {
			t.Error("kept link not marked KeptFromPrevious")
		}
	}
}

func TestDrainExcludesNode(t *testing.T) {
	nodes, cands := world(4)
	s := New(DefaultConfig())
	plan := s.Solve(Input{
		Candidates: cands,
		Requests:   backhaulRequests(nodes),
		Existing:   map[radio.LinkID]bool{},
		Gateways:   []string{"gs-0"},
		Drained:    map[string]bool{"hbal-002": true},
	})
	for _, c := range plan.Links {
		if c.Report.XA.Node.ID == "hbal-002" || c.Report.XB.Node.ID == "hbal-002" {
			t.Errorf("drained node got link %v", c.Report.ID)
		}
	}
	// hbal-002's own request becomes unsatisfiable (it was the chain
	// link), as do downstream balloons that relied on it.
	found := false
	for _, u := range plan.Unsatisfied {
		if u.Src == "hbal-002" {
			found = true
		}
	}
	if !found {
		t.Error("drained node's own request should be unsatisfied")
	}
}

func TestRedundancySecondaryObjective(t *testing.T) {
	nodes, cands := world(4)
	s := New(DefaultConfig())
	plan := s.Solve(Input{
		Candidates: cands, Requests: backhaulRequests(nodes),
		Existing: map[radio.LinkID]bool{}, Gateways: []string{"gs-0"},
	})
	if plan.RedundantCount() == 0 {
		t.Error("idle transceivers should be tasked with redundant links")
	}
	// With redundancy enabled the topology must be more than a tree:
	// links > balloons.
	if len(plan.Links) <= 4 {
		t.Errorf("links = %d, want > 4 (tree + redundancy)", len(plan.Links))
	}
	// Ablation: no redundancy target.
	cfg := DefaultConfig()
	cfg.RedundancyTargetFrac = 0
	lean := New(cfg).Solve(Input{
		Candidates: cands, Requests: backhaulRequests(nodes),
		Existing: map[radio.LinkID]bool{}, Gateways: []string{"gs-0"},
	})
	if lean.RedundantCount() != 0 {
		t.Error("zero target must add no redundant links")
	}
	if len(lean.Links) >= len(plan.Links) {
		t.Error("redundancy off should produce fewer links")
	}
}

func TestUnreachableRequestUnsatisfied(t *testing.T) {
	nodes, cands := world(2)
	reqs := backhaulRequests(nodes)
	reqs = append(reqs, Request{ID: "backhaul/ghost", Src: "ghost-node", MinBitrateBps: 1e6})
	s := New(DefaultConfig())
	plan := s.Solve(Input{
		Candidates: cands, Requests: reqs,
		Existing: map[radio.LinkID]bool{}, Gateways: []string{"gs-0"},
	})
	if len(plan.Unsatisfied) != 1 || plan.Unsatisfied[0].Src != "ghost-node" {
		t.Errorf("unsatisfied = %v", plan.Unsatisfied)
	}
}

func TestExplicitDestination(t *testing.T) {
	nodes, cands := world(3)
	_ = nodes
	s := New(DefaultConfig())
	plan := s.Solve(Input{
		Candidates: cands,
		Requests: []Request{{
			ID: "b2b", Src: "hbal-003", Dst: "hbal-001", MinBitrateBps: 1e6,
		}},
		Existing: map[radio.LinkID]bool{}, Gateways: []string{"gs-0"},
	})
	path, ok := plan.Routes["b2b"]
	if !ok {
		t.Fatal("explicit-destination request unsatisfied")
	}
	if path[0] != "hbal-003" || path[len(path)-1] != "hbal-001" {
		t.Errorf("path = %v", path)
	}
}

func TestEmptyInput(t *testing.T) {
	s := New(DefaultConfig())
	plan := s.Solve(Input{Gateways: []string{"gs-0"}})
	if len(plan.Links) != 0 || len(plan.Routes) != 0 {
		t.Error("empty input must give an empty plan")
	}
}

func TestRedundancyBoundsAndFraction(t *testing.T) {
	// Appendix A with 2-transceiver ground stations: B=10, G=3 →
	// L_min=10, L_max=floor((6+30)/2)=18.
	lmin, lmax := RedundancyBounds(10, 3, 3)
	if lmin != 10 || lmax != 18 {
		t.Errorf("bounds = %d,%d want 10,18", lmin, lmax)
	}
	if f := RedundancyFraction(10, 10, 3); f != 0 {
		t.Errorf("at L_min fraction = %v, want 0", f)
	}
	if f := RedundancyFraction(18, 10, 3); f != 1 {
		t.Errorf("at L_max fraction = %v, want 1", f)
	}
	if f := RedundancyFraction(14, 10, 3); math.Abs(f-0.5) > 1e-9 {
		t.Errorf("midpoint fraction = %v, want 0.5", f)
	}
	// Clamping.
	if RedundancyFraction(5, 10, 3) != 0 || RedundancyFraction(99, 10, 3) != 1 {
		t.Error("fraction must clamp to [0,1]")
	}
	// Degenerate.
	if !math.IsNaN(RedundancyFraction(0, 0, 0)) {
		t.Error("degenerate bounds must be NaN")
	}
}

func TestMarginalLinksOnlyWhenNecessary(t *testing.T) {
	// Build a world where the only path to the GS is marginal: the
	// solver must still use it ("attempted when no acceptable links
	// are available").
	gs := platform.NewGroundStation("gs-0", geo.LLADeg(-1.3, 36.6, 1600), nil)
	far := mkBalloon("hbal-001", -1, 42.6) // ~665 km from everything
	near := mkBalloon("hbal-002", -1, 37.2)
	var xs []*platform.Transceiver
	for _, n := range indexed(gs, far, near) {
		xs = append(xs, n.Xcvrs...)
	}
	e := linkeval.New(linkeval.DefaultConfig(), clearSky{}, nil)
	cands := e.CandidateGraph(xs, 0)
	hasMarginal := false
	for _, r := range cands {
		if r.Class == rf.Marginal {
			hasMarginal = true
		}
	}
	if !hasMarginal {
		t.Skip("geometry produced no marginal candidates; skip")
	}
	s := New(DefaultConfig())
	plan := s.Solve(Input{
		Candidates: cands,
		Requests:   []Request{{ID: "r", Src: "hbal-001", MinBitrateBps: 1e6}},
		Existing:   map[radio.LinkID]bool{},
		Gateways:   []string{"gs-0"},
	})
	if _, ok := plan.Routes["r"]; !ok {
		t.Error("marginal-only path should still satisfy the request")
	}
}

// chosenIDs returns the set of p's planned link IDs.
func chosenIDs(p *Plan) map[radio.LinkID]bool {
	out := make(map[radio.LinkID]bool, len(p.Links))
	for _, c := range p.Links {
		out[c.Report.ID] = true
	}
	return out
}
