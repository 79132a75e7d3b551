package explain

import (
	"fmt"
	"math/rand"
	"reflect"
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
	ab, cd := radio.MakeLinkID("a", "b"), radio.MakeLinkID("c", "d")
	l.Add(Event{At: 10, Op: Solved, N: 1})
	l.Add(Event{At: 20, Op: LinkUp, Link: ab})
	l.Add(Event{At: 30, Op: LinkDown, Link: cd, Reason: radio.ReasonRFFade})
	l.Add(Event{At: 40, Op: Anomaly, Name: "hbal-001", Detail: "agent rebooted with config wipe"})

	if got := l.Query(Filter{Kind: "link-state"}); len(got) != 2 {
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

// script appends a seeded run of typed rows to every log: link
// attempts that come up, fail, retry, get withdrawn or abandoned,
// routes programmed and removed, and a solve row and cycle end every
// tenth step.
func script(seed int64, steps int, logs ...*Log) {
	rng := rand.New(rand.NewSource(seed))
	links := make([]radio.LinkID, 6)
	for i := range links {
		links[i] = radio.MakeLinkID(fmt.Sprintf("a/x-%d", i), fmt.Sprintf("b/x-%d", i))
	}
	routes := []string{"r-1", "r-2", "r-3"}
	paths := [][]string{{"a", "b"}, {"a", "c", "b"}}
	for step := 1; step <= steps; step++ {
		at := float64(step)
		id := links[rng.Intn(len(links))]
		var e Event
		switch rng.Intn(8) {
		case 0:
			e = Event{At: at, Op: Establish, Link: id, N: 1 + rng.Intn(3), TTE: at + 5}
		case 1:
			e = Event{At: at, Op: LinkUp, Link: id}
		case 2:
			e = Event{At: at, Op: LinkDown, Link: id, Reason: radio.Reason(1 + rng.Intn(5))}
		case 3:
			e = Event{At: at, Op: Withdraw, Link: id}
		case 4:
			e = Event{At: at, Op: LinkAbandoned, Link: id, N: 3}
		case 5:
			e = Event{At: at, Op: SolveHeld, N: step}
		case 6:
			e = Event{At: at, Op: RouteProgram, Name: routes[rng.Intn(len(routes))], N: step, Path: paths[rng.Intn(len(paths))]}
		default:
			e = Event{At: at, Op: RouteRemove, Name: routes[rng.Intn(len(routes))], N: step}
		}
		for _, l := range logs {
			l.Add(e)
			l.Add(Event{At: at, Op: Anomaly, Name: "controller", Detail: "note"})
			if step%10 == 0 {
				l.Add(Event{At: at, Op: Solved, N: step / 10, Summary: &Summary{Utility: at}})
				l.EndCycle(at)
			}
		}
	}
}

// TestLogCap: a log past its cap folds the rows it drops into its base
// state, so every solve cycle it still holds scrubs to the uncapped
// log's state, and one whose end it dropped is gone.
func TestLogCap(t *testing.T) {
	var full Log
	capped := Log{max: 40}
	script(1, 400, &full, &capped)
	dropped := len(full.rows) - len(capped.rows)
	if dropped == 0 || len(capped.rows) > 40 {
		t.Fatalf("capped log holds %d rows of %d; want eviction", len(capped.rows), len(full.rows))
	}
	if got := capped.Query(Filter{From: 391}); len(got) != 2*10+1 {
		t.Errorf("newest rows lost: %d after t=391", len(got))
	}
	evicted, kept := 0, 0
	for i, e := range full.rows {
		if e.Op != cycleEnd {
			continue
		}
		want, _ := full.StateAt(e.At)
		got, ok := capped.StateAt(e.At)
		if i < dropped {
			evicted++
			if ok {
				t.Errorf("t=%v: scrubbed to a cycle whose end was evicted", e.At)
			}
			continue
		}
		kept++
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("t=%v: capped %+v (ok=%v), uncapped %+v", e.At, got, ok, want)
		}
	}
	if evicted == 0 || kept < 2 {
		t.Errorf("%d cycles evicted, %d kept; want both", evicted, kept)
	}
}

// TestScrubber: a scrub lands on the last cycle at or before t, and a
// cycle's state holds its own rows but not the same-instant rows that
// come after its end.
func TestScrubber(t *testing.T) {
	var l Log
	ab, bc := radio.MakeLinkID("a/x-0", "b/x-0"), radio.MakeLinkID("b/x-1", "c/x-0")
	l.Add(Event{At: 100, Op: Establish, Link: ab, N: 1})
	l.Add(Event{At: 150, Op: LinkUp, Link: ab})
	l.Add(Event{At: 200, Op: Solved, N: 1, Summary: &Summary{Utility: 7}})
	l.Add(Event{At: 200, Op: RouteProgram, Name: "r", N: 1, Path: []string{"a", "b"}})
	l.EndCycle(200)
	l.Add(Event{At: 200, Op: LinkUp, Link: bc})
	l.Add(Event{At: 300, Op: LinkDown, Link: ab, Reason: radio.ReasonRFFade})
	l.Add(Event{At: 300, Op: Solved, N: 2, Summary: &Summary{Utility: 9}})
	l.EndCycle(300)

	if _, ok := l.StateAt(199); ok {
		t.Error("no state before the first cycle")
	}
	st, ok := l.StateAt(250)
	want := State{At: 200, Value: 7,
		Links:  []Installed{{ID: ab, Intent: "established"}},
		Routes: []Route{{ID: "r", Path: []string{"a", "b"}}},
	}
	if !ok || !reflect.DeepEqual(st, want) {
		t.Errorf("StateAt(250) = %+v, want %+v", st, want)
	}
	st, _ = l.StateAt(300)
	if st.At != 300 || st.Value != 9 || len(st.Links) != 1 || st.Links[0] != (Installed{ID: bc}) {
		t.Errorf("StateAt(300) = %+v, want bc up with no intent, value 9", st)
	}
}

// TestRowsRenderTodaysBytes pins each typed row's rendering.
func TestRowsRenderTodaysBytes(t *testing.T) {
	id := radio.MakeLinkID("hbal-002/xcvr-1", "gs-0/xcvr-0")
	var l Log
	l.Add(Event{At: 60, Op: Establish, Link: id, N: 2, TTE: 95.4})
	l.Add(Event{At: 61, Op: LinkDown, Link: id, Reason: radio.ReasonRFFade})
	l.Add(Event{At: 62, Op: LinkAbandoned, Link: id, N: 3})
	l.Add(Event{At: 63, Op: RouteProgram, Name: "backhaul/hbal-002", N: 4, Path: []string{"hbal-002", "gs-0"}})
	l.Add(Event{At: 64, Op: Solved, N: 12, Summary: &Summary{Candidates: 40, Links: 9, Redundant: 2, Routes: 5, Unsatisfied: 1, Utility: 3.5e8, EvalPairs: 90, ReEvals: 3}})
	l.Add(Event{At: 65, Op: SolveHeld, N: 13})
	want := []string{
		"[      60.0] command      gs-0/xcvr-0<->hbal-002/xcvr-1 link-establish attempt 2 tte=95",
		"[      61.0] link-state   gs-0/xcvr-0<->hbal-002/xcvr-1 down: rf-fade",
		"[      62.0] link-state   gs-0/xcvr-0<->hbal-002/xcvr-1 abandoned after 3 attempts",
		"[      63.0] route-intent backhaul/hbal-002            program gen 4 path [hbal-002 gs-0]",
		"[      64.0] solve        cycle-12                     candidates=40 links=9 redundant=2 routes=5 unsatisfied=1 utility=350000000 evalpairs=90 reevals=3",
		"[      65.0] anomaly      cycle-13                     solver unavailable; holding last-known-good plan",
	}
	rows := l.Query(Filter{})
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, e := range rows {
		if got := e.String(); got != want[i] {
			t.Errorf("row %d:\n%q\nwant\n%q", i, got, want[i])
		}
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
	ids := platform.NewIDs() // the solver numbers nodes by their Index
	for _, n := range []*platform.Node{n1, n2, n3} {
		n.Power.CommsOn = true
		ids.Register(n)
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
