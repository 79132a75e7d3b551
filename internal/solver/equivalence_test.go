package solver

// Equivalence property tests: the engine (Solve) must produce
// byte-identical plans to SolveReference — the retained seed
// implementation — on evolving multi-cycle scenarios with drifting
// positions, churning and flipped existing-link sets, mixed request
// bitrate classes, and drains.

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"minkowski/internal/flight"
	"minkowski/internal/geo"
	"minkowski/internal/linkeval"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/rf"
)

// atWidths runs fn as a subtest at GOMAXPROCS 1, 2 and 8. A solve reads
// no runtime setting and starts no goroutine, and these legs hold it to
// that: its plans and counters must not depend on how many threads the
// runtime may use. The subtest restores the setting on cleanup; no test
// in this package calls t.Parallel, so the process-wide setting cannot
// leak into another.
func atWidths(t *testing.T, fn func(t *testing.T)) {
	for _, n := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(n)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			fn(t)
		})
	}
}

// eqWorld is a drifting fleet scenario: a grid of balloons over a few
// gateways, with a deterministic LCG nudging positions each cycle so
// consecutive candidate graphs overlap heavily but never exactly.
type eqWorld struct {
	nodes    []*platform.Node
	balloons []*flight.Balloon
	eval     *linkeval.Evaluator
	rng      uint64
	cycle    int
}

func (w *eqWorld) rand() float64 { // xorshift64*, deterministic
	w.rng ^= w.rng >> 12
	w.rng ^= w.rng << 25
	w.rng ^= w.rng >> 27
	return float64(w.rng*0x2545F4914F6CDD1D>>11) / float64(1<<53)
}

func newEqWorld(nBalloons int, seed uint64) *eqWorld {
	w := &eqWorld{rng: seed | 1}
	gws := []struct {
		id       string
		lat, lon float64
	}{
		{"gs-alpha", -1.3, 36.6},
		{"gs-beta", -0.4, 37.4},
	}
	for _, g := range gws {
		w.nodes = append(w.nodes, platform.NewGroundStation(g.id, geo.LLADeg(g.lat, g.lon, 1600), nil))
	}
	side := 1
	for side*side < nBalloons {
		side++
	}
	for i := 0; i < nBalloons; i++ {
		id := fmt.Sprintf("hbal-%03d", i)
		lat := -1.2 + 1.1*float64(i/side)
		lon := 36.5 + 1.1*float64(i%side)
		b := &flight.Balloon{ID: id, Pos: geo.LLADeg(lat, lon, 18000)}
		n := platform.NewBalloonNode(b)
		n.Power.CommsOn = true
		w.nodes = append(w.nodes, n)
		w.balloons = append(w.balloons, b)
	}
	indexed(w.nodes...)
	w.eval = linkeval.New(linkeval.DefaultConfig(), clearSky{}, nil)
	return w
}

func (w *eqWorld) gateways() []string { return []string{"gs-alpha", "gs-beta"} }

// drift nudges every balloon a few km — small enough that most links
// survive, large enough that some appear/vanish and bitrates change.
func (w *eqWorld) drift() {
	for _, b := range w.balloons {
		b.Pos.Lat += geo.Deg(0.05 * (w.rand() - 0.5))
		b.Pos.Lon += geo.Deg(0.05 * (w.rand() - 0.5))
	}
	w.cycle++
}

// input builds one solve cycle's Input. existing carries the previous
// plan's links (hysteresis); every few cycles a drain appears, or one
// candidate's installed flag flips and a request asks for a second
// bitrate class.
func (w *eqWorld) input(existing map[radio.LinkID]bool) Input {
	var xs []*platform.Transceiver
	for _, n := range w.nodes {
		xs = append(xs, n.Xcvrs...)
	}
	in := Input{
		Candidates: w.eval.CandidateGraph(xs, 0),
		Existing:   existing,
		Gateways:   w.gateways(),
	}
	for _, n := range w.nodes {
		if n.Kind == platform.KindBalloon {
			in.Requests = append(in.Requests, Request{
				ID: "backhaul/" + n.ID, Src: n.ID, MinBitrateBps: 50e6,
			})
		}
	}
	if w.cycle%4 == 3 && len(w.balloons) > 2 {
		in.Drained = map[string]bool{w.balloons[1].ID: true}
	}
	if w.cycle%3 == 2 && len(in.Candidates) > 0 {
		in.Existing = flipExisting(existing, in.Candidates[len(in.Candidates)/2].ID)
		in.Requests[0].MinBitrateBps = 400e6
	}
	return in
}

// flipExisting returns a copy of existing with the installed flag of
// each of ids inverted, leaving the caller's map as it was.
func flipExisting(existing map[radio.LinkID]bool, ids ...radio.LinkID) map[radio.LinkID]bool {
	out := make(map[radio.LinkID]bool, len(existing)+len(ids))
	for id, on := range existing {
		out[id] = on
	}
	for _, id := range ids {
		out[id] = !existing[id]
	}
	return out
}

func existingFrom(p *Plan) map[radio.LinkID]bool {
	out := make(map[radio.LinkID]bool, len(p.Links))
	for _, c := range p.Links {
		out[c.Report.ID] = true
	}
	return out
}

// matchReference solves the given number of drifting cycles of w with
// the engine and with the reference, feeding the reference's plan back
// as the existing links, and fails at the first plan that differs.
func matchReference(t *testing.T, cfg Config, w *eqWorld, cycles int, input func(*eqWorld, map[radio.LinkID]bool) Input) {
	t.Helper()
	s, ref := New(cfg), New(cfg)
	existing := map[radio.LinkID]bool{}
	for cyc := 0; cyc < cycles; cyc++ {
		in := input(w, existing)
		refPlan := ref.SolveReference(in)
		if got, want := s.Solve(in).Fingerprint(), refPlan.Fingerprint(); got != want {
			t.Fatalf("cycle %d: engine diverged from reference\nengine:\n%s\nreference:\n%s", cyc, got, want)
		}
		existing = existingFrom(refPlan)
		w.drift()
	}
}

// TestEngineMatchesReferenceCold: Solve == SolveReference on
// every cycle of a drifting scenario.
func TestEngineMatchesReferenceCold(t *testing.T) {
	atWidths(t, func(t *testing.T) {
		matchReference(t, DefaultConfig(), newEqWorld(9, 0xC0FFEE), 6, (*eqWorld).input)
	})
}

// TestEngineMatchesReferenceTightHopCap pins the hop-cap
// non-monotonicity case: with a binding MaxPathLen, a request that
// starts out unreachable can BECOME routable mid-greedy (conflict
// elimination and chosen-edge cost drops reorder Dijkstra pops, so a
// node can finalize with fewer hops and un-cap a path). The reference
// re-runs every nil request each iteration and final-routes everyone;
// the engine must match byte for byte — it may only memoize nils
// whose search never hit the cap. Runs across tight caps and seeds.
func TestEngineMatchesReferenceTightHopCap(t *testing.T) {
	for _, maxLen := range []int{1, 2, 3, 4} {
		for _, seed := range []uint64{0x7C4A, 0xA11CE} {
			t.Run(fmt.Sprintf("cap=%d/seed=%x", maxLen, seed), func(t *testing.T) {
				atWidths(t, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.MaxPathLen = maxLen
					s := New(cfg)
					ref := New(cfg)
					w := newEqWorld(12, seed)
					existing := map[radio.LinkID]bool{}
					sawUnsat := false
					for cyc := 0; cyc < 6; cyc++ {
						in := w.input(existing)
						refPlan := ref.SolveReference(in)
						want := refPlan.Fingerprint()
						if got := s.Solve(in).Fingerprint(); got != want {
							t.Fatalf("cycle %d: engine diverged under cap %d\nengine:\n%s\nreference:\n%s", cyc, maxLen, got, want)
						}
						sawUnsat = sawUnsat || len(refPlan.Unsatisfied) > 0
						existing = existingFrom(refPlan)
						w.drift()
					}
					if maxLen <= 2 && !sawUnsat {
						t.Fatalf("vacuous scenario: cap %d never left a request unsatisfied", maxLen)
					}
				})
			})
		}
	}
}

// TestHopCapUnreachableBecomesRoutable is the deterministic
// construction of the nil→routable flip. World (MaxPathLen = 2):
//
//	s ──eSX── x          x has ONE transceiver, shared by eSX and eXM
//	│          │
//	eSM       eXM
//	(marginal) │
//	└─────── m ──eMD── d
//
// Request r1 (s→d) initially fails: Dijkstra finalizes m via the
// cheap 2-hop s-x-m route (4.4) before the marginal direct s-m edge
// (5.2), and at 2 hops the cap stops expansion — d is never reached,
// but ONLY because of the cap. Request r2 (s→x) then makes the greedy
// commit eSX, whose conflict elimination kills eXM (shared x
// transceiver). Now m finalizes via s-m at 1 hop and d is reachable
// within the cap: the reference's per-iteration re-run of nil
// requests finds s-m-d and routes r1. An engine that memoizes the
// initial nil as permanent never retries and strands r1.
func TestHopCapUnreachableBecomesRoutable(t *testing.T) {
	mkNode := func(id string, nx int) *platform.Node {
		n := &platform.Node{ID: id, Kind: platform.KindBalloon}
		for i := 0; i < nx; i++ {
			n.Xcvrs = append(n.Xcvrs, &platform.Transceiver{
				ID: fmt.Sprintf("%s/x%d", id, i), Node: n,
			})
		}
		return n
	}
	s := mkNode("s", 2)
	x := mkNode("x", 1)
	m := mkNode("m", 3)
	d := mkNode("d", 1)
	indexed(s, x, m, d)
	mkRep := func(xa, xb *platform.Transceiver) *linkeval.Report {
		return &linkeval.Report{
			ID: radio.MakeLinkID(xa.ID, xb.ID), XA: xa, XB: xb,
			Budget: rf.Budget{BitrateBps: 100e6, MarginDB: 10},
		}
	}
	eMD := mkRep(m.Xcvrs[2], d.Xcvrs[0])
	eXM := mkRep(x.Xcvrs[0], m.Xcvrs[0])
	eSM := mkRep(s.Xcvrs[1], m.Xcvrs[1])
	eSM.Class = rf.Marginal
	eSX := mkRep(s.Xcvrs[0], x.Xcvrs[0])
	in := Input{
		// Strictly ID-sorted, as the evaluator emits them.
		Candidates: []*linkeval.Report{eMD, eXM, eSM, eSX},
		Requests: []Request{
			{ID: "r1", Src: "s", Dst: "d", MinBitrateBps: 10e6},
			{ID: "r2", Src: "s", Dst: "x", MinBitrateBps: 10e6},
		},
	}
	cfg := DefaultConfig()
	cfg.MaxPathLen = 2

	ref := New(cfg).SolveReference(in)
	route, ok := ref.Routes["r1"]
	if !ok || len(route) != 3 || route[0] != "s" || route[1] != "m" || route[2] != "d" {
		t.Fatalf("scenario must flip r1 from unreachable to routed s-m-d; reference gave %v (unsat %v)", route, ref.Unsatisfied)
	}
	want := ref.Fingerprint()
	atWidths(t, func(t *testing.T) {
		// One Solver re-solving the same input: the nilKnown memo is
		// per-solve scratch and must not leak into the next cycle.
		sw := New(cfg)
		for cyc := 0; cyc < 3; cyc++ {
			if got := sw.Solve(in).Fingerprint(); got != want {
				t.Errorf("cycle %d: engine stranded the un-capped request:\nengine:\n%s\nreference:\n%s", cyc, got, want)
			}
		}
	})
}

// mixedInput is w's next input with every dimension of the dominance
// rule in play inside each node-pair group. The evaluator gives the
// 3×3 transceiver pairs between two platforms one bitrate and one
// class, so each candidate is copied and, by a hash of its index and
// the cycle, given a bitrate on either side of and exactly on the
// request thresholds, a marginal class (c1 + MarginalPenalty) and an
// inverted installed flag (c1 = ExistingLinkCost or NewLinkCost). The
// requests cycle through three classes.
func mixedInput(w *eqWorld, existing map[radio.LinkID]bool) Input {
	in := w.input(existing)
	bitrates := [...]float64{5e6, 10e6, 50e6, 120e6, 400e6, 988e6}
	reps := make([]linkeval.Report, len(in.Candidates))
	var flips []radio.LinkID
	for i, r := range in.Candidates {
		h := uint64(i+w.cycle*7919) * 0x9E3779B97F4A7C15
		reps[i] = *r
		reps[i].Budget.BitrateBps = bitrates[h>>61%uint64(len(bitrates))]
		if h>>40&3 == 0 {
			reps[i].Class = rf.Marginal
		}
		if h>>20%3 == 0 {
			flips = append(flips, r.ID)
		}
		in.Candidates[i] = &reps[i]
	}
	in.Existing = flipExisting(in.Existing, flips...)
	classes := [...]float64{10e6, 50e6, 400e6}
	for i := range in.Requests {
		in.Requests[i].MinBitrateBps = classes[i%len(classes)]
	}
	return in
}

// TestDominancePruningMatchesReference holds the engine's dominance-
// pruned search rows to SolveReference where the rule's three
// conditions decide: mixed request classes, bitrates, marginal classes
// and installed flags that differ between parallel edges, and a SlowBitratePenalty that is
// positive, zero (classes never matter) and negative (a slower edge is
// cheaper, so only equal classes may dominate).
func TestDominancePruningMatchesReference(t *testing.T) {
	for _, slow := range []float64{5, 0, -1} {
		for _, seed := range []uint64{0xD0, 0x5EED} {
			t.Run(fmt.Sprintf("slow=%g/seed=%x", slow, seed), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.SlowBitratePenalty = slow
				matchReference(t, cfg, newEqWorld(12, seed), 6, mixedInput)
			})
		}
	}
}

// TestEngineMatchesReferenceFleet56 runs the 56-balloon regime the
// solver's work counters are measured at (DESIGN.md §10) against the
// reference for a few drifting cycles.
func TestEngineMatchesReferenceFleet56(t *testing.T) {
	matchReference(t, DefaultConfig(), newEqWorld(56, 0xF1EE7), 4, (*eqWorld).input)
}

// TestSolveAndReferenceMatchLegacyScenarios reruns the seed test
// worlds through both implementations (belt and braces next to the
// drifting-scenario property tests).
func TestSolveAndReferenceMatchLegacyScenarios(t *testing.T) {
	nodes, cands := world(4)
	in := Input{
		Candidates: cands,
		Requests:   backhaulRequests(nodes),
		Gateways:   []string{"gs-0"},
	}
	s := New(DefaultConfig())
	if got, want := s.Solve(in).Fingerprint(), s.SolveReference(in).Fingerprint(); got != want {
		t.Fatalf("legacy line-world diverged:\n%s\nvs\n%s", got, want)
	}
	// Explicit destination + drain.
	in.Requests[0].Dst = nodes[2].ID
	in.Drained = map[string]bool{nodes[3].ID: true}
	if got, want := s.Solve(in).Fingerprint(), s.SolveReference(in).Fingerprint(); got != want {
		t.Fatalf("legacy drained-world diverged")
	}
}

// hubWorld is a hand-made input that wants more links at one platform
// than there are E-band channels: ten spokes each ask for a route to a
// ten-transceiver gateway hub — over either of two hub transceivers, so
// every commit eliminates its rivals on both — and a ring of
// spoke-to-spoke candidates offers the detour. The ninth and tenth hub
// commits find every channel in use at the hub, so choose fails, retires
// the edge and the request re-routes over the ring.
func hubWorld() Input {
	mkNode := func(id string, nx int) *platform.Node {
		n := &platform.Node{ID: id, Kind: platform.KindBalloon}
		for i := 0; i < nx; i++ {
			n.Xcvrs = append(n.Xcvrs, &platform.Transceiver{ID: fmt.Sprintf("%s/x%d", id, i), Node: n})
		}
		return n
	}
	const spokes = 10
	hub := mkNode("gw", spokes)
	var ring []*platform.Node
	for i := 0; i < spokes; i++ {
		ring = append(ring, mkNode(fmt.Sprintf("s%02d", i), 3))
	}
	indexed(append(ring, hub)...)
	in := Input{Gateways: []string{"gw"}}
	add := func(xa, xb *platform.Transceiver, bps float64) {
		in.Candidates = append(in.Candidates, &linkeval.Report{
			ID: radio.MakeLinkID(xa.ID, xb.ID), XA: xa, XB: xb,
			Budget: rf.Budget{BitrateBps: bps, MarginDB: 10},
		})
	}
	for i, s := range ring {
		add(s.Xcvrs[0], hub.Xcvrs[i], 100e6)
		add(s.Xcvrs[0], hub.Xcvrs[(i+1)%spokes], 100e6)
		add(s.Xcvrs[1], ring[(i+1)%spokes].Xcvrs[2], 40e6+10e6*float64(i%3))
		in.Requests = append(in.Requests, Request{ID: "backhaul/" + s.ID, Src: s.ID, MinBitrateBps: 50e6})
	}
	// Strictly ID-sorted, as the evaluator emits them.
	sort.Slice(in.Candidates, func(i, j int) bool {
		a, b := in.Candidates[i].ID, in.Candidates[j].ID
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	return in
}

// TestEngineMatchesReferenceChannelExhaustion drives the failed-choose
// path — an edge retired because no channel is free, its rows marked
// for compaction — against the reference, over cycles that feed the
// previous plan back as the existing links.
func TestEngineMatchesReferenceChannelExhaustion(t *testing.T) {
	in := hubWorld()
	atWidths(t, func(t *testing.T) {
		s, ref := New(DefaultConfig()), New(DefaultConfig())
		in.Existing = nil
		for cyc := 0; cyc < 3; cyc++ {
			refPlan := ref.SolveReference(in)
			atHub := 0
			for _, l := range refPlan.Links {
				if l.Report.XA.Node.ID == "gw" || l.Report.XB.Node.ID == "gw" {
					atHub++
				}
			}
			if channels := len(rf.EBandChannels()); atHub != channels || len(in.Requests) <= channels {
				t.Fatalf("vacuous scenario: %d links at the hub for %d requests, want all %d channels used and more wanted",
					atHub, len(in.Requests), channels)
			}
			if got, want := s.Solve(in).Fingerprint(), refPlan.Fingerprint(); got != want {
				t.Fatalf("cycle %d: engine diverged from reference\nengine:\n%s\nreference:\n%s", cyc, got, want)
			}
			in.Existing = existingFrom(refPlan)
		}
	})
}

// TestSolveScansOnlyUsableEdges pins the work counters on hubWorld: the
// searches, pushes and pops are the reference algorithm's (the plan is
// held to it above) and the entries scanned are those of rows that hold
// only viable, chosen and undominated edges — 70, where rows that kept
// the dominated ones scanned 80 and rows that kept every retired edge
// to the end of the solve 91, for the same 24 searches, 85 pushes and
// 56 pops. The greedy's sweeps compare the 61 edges of current paths.
// The counts are cumulative.
func TestSolveScansOnlyUsableEdges(t *testing.T) {
	in := hubWorld()
	want := Stats{DijkstraRuns: 24, AdjScanned: 70, HeapPushes: 85, HeapPops: 56, Swept: 61}
	atWidths(t, func(t *testing.T) {
		s := New(DefaultConfig())
		s.Solve(in)
		if got := s.Stats(); got != want {
			t.Errorf("one solve: %+v, want %+v", got, want)
		}
		s.Solve(in)
		if got, twice := s.Stats(), (Stats{2 * want.DijkstraRuns, 2 * want.AdjScanned, 2 * want.HeapPushes, 2 * want.HeapPops, 2 * want.Swept}); got != twice {
			t.Errorf("two solves: %+v, want %+v", got, twice)
		}
		if d := s.Stats().Sub(want); d != want {
			t.Errorf("Sub: %+v, want %+v", d, want)
		}
	})
}

// TestPlanOwnsItsReports: a plan takes the reports it chose by value, so
// it reads the same after the evaluator has overwritten the graph it was
// solved from, and none of its reports is one of the evaluator's.
func TestPlanOwnsItsReports(t *testing.T) {
	w := newEqWorld(12, 0xD1CE)
	w.eval.Predict = func(n *platform.Node, lead float64) geo.LLA {
		p := n.Position()
		p.Lon += geo.Deg(lead / 3600) // everything drifts east with lead
		return p
	}
	in := w.input(nil)
	evaluators := map[*linkeval.Report]bool{}
	for _, r := range in.Candidates {
		evaluators[r] = true
	}
	plan := New(DefaultConfig()).Solve(in)
	if len(plan.Links) == 0 {
		t.Fatal("empty plan")
	}
	fp := plan.Fingerprint()
	kept := make([]linkeval.Report, len(plan.Links))
	for i, l := range plan.Links {
		kept[i] = *l.Report
	}
	var xs []*platform.Transceiver
	for _, n := range w.nodes {
		xs = append(xs, n.Xcvrs...)
	}
	for _, lead := range []float64{900, 1800} {
		for _, r := range w.eval.CandidateGraph(xs, lead) {
			evaluators[r] = true
		}
	}
	if got := plan.Fingerprint(); got != fp {
		t.Errorf("fingerprint changed under the evaluator's next calls:\n%s\nwas:\n%s", got, fp)
	}
	for i, l := range plan.Links {
		if *l.Report != kept[i] {
			t.Errorf("link %v: report changed:\n now %+v\n was %+v", kept[i].ID, *l.Report, kept[i])
		}
		if evaluators[l.Report] {
			t.Errorf("link %v: the plan points into the evaluator's storage", kept[i].ID)
		}
	}
}

// TestIndexKeyedLookupsMatchReference: the engine numbers nodes by
// platform.Node.Index and tests Existing and Drained by number and by
// a search of the sorted installed links; the reference keys both by
// name. On eqWorld inputs whose nodes are registered out of name order
// with gaps, the plans must be the same through every shape the maps
// and names take: an Existing map with switched-off entries and links
// no candidate carries, a drained balloon and a drained gateway, and
// requests naming a node, a destination and a gateway that no
// candidate carries. A second numbering of the same nodes must give the
// same plans and the same work counters.
func TestIndexKeyedLookupsMatchReference(t *testing.T) {
	w := newEqWorld(12, 0x1DE7)
	renumber := func(stride int) {
		ids := platform.NewIDs()
		for i := len(w.nodes) - 1; i >= 0; i-- {
			for k := 0; k < stride; k++ {
				ids.Intern(fmt.Sprintf("gap-%d-%d", i, k))
			}
			ids.Register(w.nodes[i])
		}
	}
	input := func(existing map[radio.LinkID]bool) Input {
		in := w.input(existing)
		in.Existing = flipExisting(existing,
			radio.MakeLinkID("gone/x0", "hbal-000/xcvr-0"), // installed, no longer a candidate
			in.Candidates[0].ID)                            // switched on, or off when installed
		in.Existing[radio.MakeLinkID("off/x0", "off/x1")] = false
		switch w.cycle % 3 {
		case 0:
			in.Drained = map[string]bool{w.balloons[4].ID: true, "gs-alpha": true, "nowhere": true}
		case 1:
			in.Drained = map[string]bool{w.balloons[7].ID: true}
		}
		in.Gateways = append(in.Gateways, "gs-ghost")
		in.Requests = append(in.Requests,
			Request{ID: "absent-src", Src: "hbal-999", MinBitrateBps: 50e6},
			Request{ID: "to-balloon", Src: w.balloons[2].ID, Dst: w.balloons[9].ID, MinBitrateBps: 20e6},
			Request{ID: "absent-dst", Src: w.balloons[3].ID, Dst: "hbal-999", MinBitrateBps: 20e6},
			Request{ID: "from-gateway", Src: "gs-beta", MinBitrateBps: 1e6},
			Request{ID: "from-ghost", Src: "gs-ghost", MinBitrateBps: 1e6},
			Request{ID: "ghost-to-self", Src: "gs-ghost", Dst: "gs-ghost", MinBitrateBps: 1e6})
		return in
	}
	a, b, ref := New(DefaultConfig()), New(DefaultConfig()), New(DefaultConfig())
	existing := map[radio.LinkID]bool{}
	sawUnsat, sawDrain := false, false
	for cyc := 0; cyc < 6; cyc++ {
		in := input(existing)
		refPlan := ref.SolveReference(in)
		want := refPlan.Fingerprint()
		renumber(1)
		if got := a.Solve(in).Fingerprint(); got != want {
			t.Fatalf("cycle %d: engine diverged from reference\nengine:\n%s\nreference:\n%s", cyc, got, want)
		}
		renumber(3)
		if got := b.Solve(in).Fingerprint(); got != want {
			t.Fatalf("cycle %d: a second numbering diverged from reference\nengine:\n%s\nreference:\n%s", cyc, got, want)
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("cycle %d: work counters depend on the numbering: %+v vs %+v", cyc, a.Stats(), b.Stats())
		}
		for _, id := range []string{"absent-src", "absent-dst"} {
			if _, ok := refPlan.Routes[id]; ok {
				t.Fatalf("cycle %d: request %s to or from a node no candidate carries was routed", cyc, id)
			}
		}
		if _, ok := refPlan.Routes["from-ghost"]; !ok {
			t.Fatalf("cycle %d: a request from a gateway is satisfied where it stands", cyc)
		}
		sawUnsat = sawUnsat || len(refPlan.Unsatisfied) > 2
		sawDrain = sawDrain || in.Drained != nil
		existing = existingFrom(refPlan)
		w.drift()
	}
	if !sawUnsat || !sawDrain {
		t.Fatalf("vacuous scenario: unsatisfied beyond the absent nodes %v, drains %v", sawUnsat, sawDrain)
	}
}
