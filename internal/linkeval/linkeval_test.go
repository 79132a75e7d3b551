package linkeval

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"minkowski/internal/flight"
	"minkowski/internal/geo"
	"minkowski/internal/itu"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/weather"
)

// clearSky is a Source reporting no rain anywhere.
type clearSky struct{}

func (clearSky) EstimateRain(geo.LLA) (float64, bool) { return 0, true }
func (clearSky) AgeSeconds() float64                  { return 0 }

func mkBalloon(id string, latDeg, lonDeg, alt float64) *platform.Node {
	b := &flight.Balloon{ID: id, Pos: geo.LLADeg(latDeg, lonDeg, alt)}
	n := platform.NewBalloonNode(b)
	n.Power.CommsOn = true
	return n
}

func testFleetXcvrs() []*platform.Transceiver {
	n1 := mkBalloon("hbal-001", -1.0, 36.5, 18000)
	n2 := mkBalloon("hbal-002", -1.0, 38.0, 18000) // ~167 km from n1
	n3 := mkBalloon("hbal-003", -1.0, 40.9, 18000) // far from n1 (~490 km), 320 from n2
	gs := platform.NewGroundStation("gs-0", geo.LLADeg(-1.3, 36.8, 1600), nil)
	var xs []*platform.Transceiver
	for _, n := range []*platform.Node{gs, n1, n2, n3} {
		xs = append(xs, n.Xcvrs...)
	}
	return xs
}

func TestCandidateGraphBasic(t *testing.T) {
	e := New(DefaultConfig(), clearSky{}, nil)
	g := e.CandidateGraph(testFleetXcvrs(), 0)
	if len(g) == 0 {
		t.Fatal("no candidates found")
	}
	b2b, b2g := CountByType(g)
	if b2b == 0 || b2g == 0 {
		t.Errorf("want both B2B (%d) and B2G (%d) candidates", b2b, b2g)
	}
	// No candidate may pair transceivers on the same platform.
	for _, r := range g {
		if r.XA.Node == r.XB.Node {
			t.Errorf("same-platform candidate %v", r.ID)
		}
		if !r.Budget.Closes() {
			t.Errorf("candidate %v does not close", r.ID)
		}
	}
	// Sorted by ID.
	for i := 1; i < len(g); i++ {
		if g[i-1].ID.A > g[i].ID.A {
			t.Error("graph not sorted")
		}
	}
}

// TestParallelMatchesSerial: fresh evaluators build the same graph at
// every GOMAXPROCS.
func TestParallelMatchesSerial(t *testing.T) {
	xs := testFleetXcvrs()
	var serial []*Report
	atWidths(t, func(t *testing.T) {
		g := New(DefaultConfig(), clearSky{}, nil).CandidateGraph(xs, 0)
		if serial == nil {
			serial = g // atWidths starts at GOMAXPROCS 1
			return
		}
		compareGraphs(t, "parallel", g, serial)
	})
}

func TestOutOfRangePruned(t *testing.T) {
	n1 := mkBalloon("a", -1, 36, 18000)
	n2 := mkBalloon("b", -1, 45, 18000) // ~1000 km away
	var xs []*platform.Transceiver
	xs = append(xs, n1.Xcvrs...)
	xs = append(xs, n2.Xcvrs...)
	e := New(DefaultConfig(), clearSky{}, nil)
	if g := e.CandidateGraph(xs, 0); len(g) != 0 {
		t.Errorf("1000 km pairs should be pruned, got %d", len(g))
	}
}

func TestRainMakesB2GMarginalOrGone(t *testing.T) {
	// Same geometry, rainy vs clear model: the B2G candidates must
	// degrade (fewer, or marginal class) under modelled rain.
	xs := testFleetXcvrs()
	clear := New(DefaultConfig(), clearSky{}, nil).CandidateGraph(xs, 0)
	rainy := New(DefaultConfig(), &weather.Climatology{
		Model: itu.DefaultRegionalModel(), Season: itu.LongRains,
	}, nil).CandidateGraph(xs, 0)
	clearB2G, rainyB2G := 0, 0
	clearAccept, rainyAccept := 0, 0
	for _, r := range clear {
		if r.B2G {
			clearB2G++
			if r.Class == 2 { // rf.Acceptable
				clearAccept++
			}
		}
	}
	for _, r := range rainy {
		if r.B2G {
			rainyB2G++
			if r.Class == 2 {
				rainyAccept++
			}
		}
	}
	if rainyB2G > clearB2G {
		t.Errorf("rain should not add B2G candidates (%d vs %d)", rainyB2G, clearB2G)
	}
	if clearB2G > 0 && rainyAccept >= clearAccept && rainyB2G == clearB2G {
		t.Errorf("modelled rain should degrade B2G margins (accept %d→%d)", clearAccept, rainyAccept)
	}
}

func TestMarginalAnnotation(t *testing.T) {
	// A long B2B pair should close with low margin → marginal class.
	// The evaluator plans with a deliberate 4.3 dB pessimism margin,
	// so its planning range is shorter than the physical ~700 km: a
	// ~600 km pair sits in the marginal band.
	n1 := mkBalloon("a", -1, 36, 18000)
	n2 := mkBalloon("b", -1, 41.4, 18000) // ~600 km
	var xs []*platform.Transceiver
	xs = append(xs, n1.Xcvrs...)
	xs = append(xs, n2.Xcvrs...)
	e := New(DefaultConfig(), clearSky{}, nil)
	g := e.CandidateGraph(xs, 0)
	if len(g) == 0 {
		t.Fatal("600 km B2B should be in planning range")
	}
	foundMarginal := false
	for _, r := range g {
		if r.Class == 1 { // rf.Marginal
			foundMarginal = true
		}
	}
	if !foundMarginal {
		t.Error("long-range candidates should be marginal, not fully acceptable")
	}
}

func TestPredictorUsedForFutureLeads(t *testing.T) {
	n1 := mkBalloon("a", -1, 36.5, 18000)
	n2 := mkBalloon("b", -1, 38.0, 18000)
	var xs []*platform.Transceiver
	xs = append(xs, n1.Xcvrs...)
	xs = append(xs, n2.Xcvrs...)
	// Predictor: node b drifts 1 km east per 100 s of lead.
	pred := func(n *platform.Node, lead float64) geo.LLA {
		p := n.Position()
		if n.ID == "b" {
			p = geo.Offset(p, geo.Deg(90), lead*10)
			p.Alt = 18000
		}
		return p
	}
	e := New(DefaultConfig(), clearSky{}, pred)
	now := e.CandidateGraph(xs, 0)
	if len(now) == 0 {
		t.Fatal("the current graph should have candidates")
	}
	nowDistM := now[0].DistM             // by value: the next call overwrites now
	future := e.CandidateGraph(xs, 3600) // b has moved 36 km east
	if len(future) == 0 {
		t.Fatal("the future graph should have candidates")
	}
	if nowDistM >= future[0].DistM {
		t.Errorf("future distance (%v) should exceed current (%v) as b drifts away",
			future[0].DistM, nowDistM)
	}
}

// TestHorizon: the "multiple time steps in the future" are one
// CandidateGraph call per lead, each taken by value before the next.
func TestHorizon(t *testing.T) {
	e := New(DefaultConfig(), clearSky{}, nil)
	xs := testFleetXcvrs()
	first := copyGraph(e.CandidateGraph(xs, 0))
	if len(first) == 0 {
		t.Fatal("no candidates")
	}
	// Static predictor: every step is the first but for its lead.
	for _, lead := range []float64{300, 600} {
		g := e.CandidateGraph(xs, lead)
		if len(g) != len(first) {
			t.Fatalf("lead %v: %d candidates, want %d", lead, len(g), len(first))
		}
		for i, r := range g {
			want := *first[i]
			want.Lead = lead
			if *r != want {
				t.Fatalf("lead %v: static positions must give identical graphs at all leads:\n got  %+v\n want %+v", lead, *r, want)
			}
		}
	}
}

func TestDiff(t *testing.T) {
	e := New(DefaultConfig(), clearSky{}, nil)
	xs := testFleetXcvrs()
	g1 := AppendIDs(nil, e.CandidateGraph(xs, 0))
	d := Diff(g1, g1)
	if d.Changed() || d.FracChanged() != 0 {
		t.Error("identical graphs must show no delta")
	}
	if d.Common != len(g1) {
		t.Errorf("common = %d, want %d", d.Common, len(g1))
	}
	// Remove one element.
	d2 := Diff(g1, g1[1:])
	if d2.Removed != 1 || d2.Added != 0 {
		t.Errorf("delta = %+v, want 1 removed", d2)
	}
	if math.Abs(d2.FracChanged()-1.0/float64(len(g1))) > 1e-9 {
		t.Errorf("frac changed = %v", d2.FracChanged())
	}
	if d3 := Diff(g1[1:], g1); d3.Added != 1 || d3.Removed != 0 || d3.Common != len(g1)-1 {
		t.Errorf("delta = %+v, want 1 added", d3)
	}
	// Empty graphs.
	if Diff(nil, nil).FracChanged() != 0 {
		t.Error("empty diff must be 0")
	}
}

// setDiff is the oracle Diff is held to: the two-map set difference it
// replaced.
func setDiff(a, b []radio.LinkID) GraphDelta {
	inA := make(map[radio.LinkID]bool, len(a))
	for _, id := range a {
		inA[id] = true
	}
	var d GraphDelta
	seen := make(map[radio.LinkID]bool, len(b))
	for _, id := range b {
		seen[id] = true
		if inA[id] {
			d.Common++
		} else {
			d.Added++
		}
	}
	for id := range inA {
		if !seen[id] {
			d.Removed++
		}
	}
	return d
}

// TestDiffMatchesSetDifference holds the sorted merge to the map-based
// set difference on random sub-graphs of one sorted ID universe: adds,
// removes, both, neither, and empty graphs on either side.
func TestDiffMatchesSetDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var universe []radio.LinkID
	for a := 0; a < 12; a++ {
		for b := a + 1; b < 12; b++ {
			for x := 0; x < 2; x++ {
				universe = append(universe, radio.MakeLinkID(
					fmt.Sprintf("hbal-%03d/xcvr-%d", a, x), fmt.Sprintf("hbal-%03d/xcvr-%d", b, 1-x)))
			}
		}
	}
	sort.Slice(universe, func(i, j int) bool { return idLess(universe[i], universe[j]) })
	pick := func(keep float64) []radio.LinkID {
		var out []radio.LinkID
		for _, id := range universe {
			if rng.Float64() < keep {
				out = append(out, id)
			}
		}
		return out
	}
	shares := []float64{0, 0.05, 0.5, 0.95, 1}
	for trial := 0; trial < 200; trial++ {
		a, b := pick(shares[rng.Intn(len(shares))]), pick(shares[rng.Intn(len(shares))])
		if got, want := Diff(a, b), setDiff(a, b); got != want {
			t.Fatalf("trial %d (|a|=%d, |b|=%d): merge %+v, set difference %+v", trial, len(a), len(b), got, want)
		}
	}
}
