package explain

import (
	"strings"
	"testing"

	"minkowski/internal/flight"
	"minkowski/internal/geo"
	"minkowski/internal/linkeval"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/solver"
)

func TestLogQuery(t *testing.T) {
	var l Log
	l.Append(10, EvSolve, "cycle-1", "planned 12 links")
	l.Append(20, EvLinkState, "a<->b", "established")
	l.Append(30, EvLinkState, "c<->d", "failed: rf-fade")
	l.Append(40, EvCommand, "hbal-001", "link-establish via satcom")

	if got := l.Query(Filter{Kind: EvLinkState}); len(got) != 2 {
		t.Errorf("kind filter: %d events", len(got))
	}
	if got := l.Query(Filter{Subject: "c<->d"}); len(got) != 1 {
		t.Errorf("subject filter: %d events", len(got))
	}
	if got := l.Query(Filter{From: 25, To: 35}); len(got) != 1 {
		t.Errorf("time filter: %d events", len(got))
	}
	if got := l.Query(Filter{}); len(got) != 4 {
		t.Errorf("no filter: %d events", len(got))
	}
}

func TestLogCap(t *testing.T) {
	l := Log{Cap: 100}
	for i := 0; i < 1000; i++ {
		l.Appendf(float64(i), EvCommand, "n", "cmd %d", i)
	}
	if len(l.Query(Filter{})) > 100 {
		t.Errorf("log grew to %d despite cap", len(l.Query(Filter{})))
	}
	// Newest events must survive.
	got := l.Query(Filter{From: 990})
	if len(got) != 10 {
		t.Errorf("recent events lost: %d", len(got))
	}
}

func TestScrubber(t *testing.T) {
	var s Scrubber
	s.Record(Snapshot{At: 100, Links: []string{"a<->b"}})
	s.Record(Snapshot{At: 200, Links: []string{"a<->b", "b<->c"}})
	s.Record(Snapshot{At: 300, Links: []string{"b<->c"}})

	if _, ok := s.StateAt(50); ok {
		t.Error("no state before the first snapshot")
	}
	snap, ok := s.StateAt(250)
	if !ok || snap.At != 200 {
		t.Errorf("StateAt(250) = %+v", snap)
	}
	snap, _ = s.StateAt(300)
	if snap.At != 300 {
		t.Error("exact-time snapshot must match")
	}
}

// clearSky for why-not tests.
type clearSky struct{}

func (clearSky) EstimateRain(geo.LLA) (float64, bool) { return 0, true }
func (clearSky) AgeSeconds() float64                  { return 0 }

func TestWhyNot(t *testing.T) {
	b1 := &flight.Balloon{ID: "hbal-001", Pos: geo.LLADeg(-1, 36.5, 18000)}
	n1 := platform.NewBalloonNode(b1)
	b2 := &flight.Balloon{ID: "hbal-002", Pos: geo.LLADeg(-1, 38.0, 18000)}
	n2 := platform.NewBalloonNode(b2)
	b3 := &flight.Balloon{ID: "hbal-003", Pos: geo.LLADeg(-1, 48.0, 18000)} // 1200+ km away
	n3 := platform.NewBalloonNode(b3)
	for _, n := range []*platform.Node{n1, n2, n3} {
		n.Power.CommsOn = true
	}
	e := linkeval.New(linkeval.DefaultConfig(), clearSky{}, nil)
	var xs []*platform.Transceiver
	xs = append(xs, n1.Xcvrs...)
	xs = append(xs, n2.Xcvrs...)
	cands := e.CandidateGraph(xs, 0)
	s := solver.New(solver.DefaultConfig())
	plan := s.Solve(solver.Input{
		Candidates: cands,
		Requests:   []solver.Request{{ID: "r", Src: "hbal-002", Dst: "hbal-001", MinBitrateBps: 1e6}},
		Existing:   map[radio.LinkID]bool{},
		Gateways:   []string{"hbal-001"},
	})
	if len(plan.Links) == 0 {
		t.Fatal("precondition: plan has links")
	}
	// The chosen pair answers "it WAS chosen".
	chosen := plan.Links[0]
	if got := WhyNot(e, plan, chosen.Report.XA, chosen.Report.XB); got != "it WAS chosen" {
		t.Errorf("chosen pair: %q", got)
	}
	// Out-of-range pair: not a candidate.
	if got := WhyNot(e, plan, n1.Xcvrs[0], n3.Xcvrs[0]); !strings.Contains(got, "not a candidate") {
		t.Errorf("far pair: %q", got)
	}
	// Same platform.
	if got := WhyNot(e, plan, n1.Xcvrs[0], n1.Xcvrs[1]); !strings.Contains(got, "same platform") {
		t.Errorf("same platform: %q", got)
	}
	// A pair whose transceiver is tasked by the chosen link.
	other := n2.Xcvrs[0]
	if other == chosen.Report.XA || other == chosen.Report.XB {
		other = n2.Xcvrs[1]
	}
	got := WhyNot(e, plan, chosen.Report.XA, other)
	if !strings.Contains(got, "tasked") && !strings.Contains(got, "utility") && !strings.Contains(got, "marginal") {
		t.Errorf("tasked pair: %q", got)
	}
}

func TestDetectObstructionSkew(t *testing.T) {
	var samples []PointingSample
	// Healthy sectors: small error everywhere...
	for az := 0.0; az < 360; az += 2 {
		samples = append(samples, PointingSample{
			Azimuth: geo.Deg(az), Elevation: geo.Deg(3), ErrorDB: 1.0,
		})
	}
	// ...except a new warehouse at 90–110°: links there measure 12 dB
	// below model.
	for az := 90.0; az < 110; az += 1 {
		for i := 0; i < 5; i++ {
			samples = append(samples, PointingSample{
				Azimuth: geo.Deg(az), Elevation: geo.Deg(2), ErrorDB: -12,
			})
		}
	}
	sectors := DetectObstructionSkew(samples, 10, -5, 5)
	if len(sectors) == 0 {
		t.Fatal("warehouse not detected")
	}
	for _, s := range sectors {
		if s.AzMinDeg < 80 || s.AzMaxDeg > 120 {
			t.Errorf("false positive sector %+v", s)
		}
		if s.MeanErrorDB > -5 {
			t.Errorf("sector error %v not negative enough", s.MeanErrorDB)
		}
	}
}
