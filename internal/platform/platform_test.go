package platform

import (
	"slices"
	"testing"

	"minkowski/internal/antenna"
	"minkowski/internal/flight"
	"minkowski/internal/geo"
	"minkowski/internal/wind"
)

func TestSolarOutput(t *testing.T) {
	if SolarOutputW(0) != 0 {
		t.Error("midnight should be dark")
	}
	if SolarOutputW(3*3600) != 0 {
		t.Error("03:00 should be dark")
	}
	noon := SolarOutputW(12 * 3600)
	if noon != SolarPeakW {
		t.Errorf("noon output = %v, want peak %v", noon, SolarPeakW)
	}
	morning := SolarOutputW(8 * 3600)
	if morning <= 0 || morning >= noon {
		t.Errorf("08:00 output = %v, want between 0 and noon", morning)
	}
	// Periodicity across days.
	if SolarOutputW(12*3600) != SolarOutputW(12*3600+3*DayLengthS) {
		t.Error("solar output must repeat daily")
	}
}

func TestPowerDailyCycle(t *testing.T) {
	p := NewPower()
	var onAt, offAt []float64
	wasOn := p.CommsOn
	// Simulate 3 days at 1-minute resolution.
	for tick := 0; tick < 3*24*60; tick++ {
		tm := float64(tick) * 60
		p.Step(tm, 60)
		if p.CommsOn != wasOn {
			if p.CommsOn {
				onAt = append(onAt, tm)
			} else {
				offAt = append(offAt, tm)
			}
			wasOn = p.CommsOn
		}
	}
	if len(onAt) < 3 || len(offAt) < 2 {
		t.Fatalf("expected daily on/off cycling, got on=%d off=%d", len(onAt), len(offAt))
	}
	// Comms come on shortly after dawn (between 06:00 and 08:00).
	for _, tm := range onAt {
		tod := int(tm) % DayLengthS
		if tod < SunriseS || tod > SunriseS+2*3600 {
			t.Errorf("comms on at %02d:%02d, want shortly after dawn", tod/3600, (tod%3600)/60)
		}
	}
	// Comms shed in the first few hours of darkness (18:00–23:00).
	for _, tm := range offAt {
		tod := int(tm) % DayLengthS
		if tod < SunsetS || tod > 23*3600 {
			t.Errorf("comms off at %02d:%02d, want first hours of darkness", tod/3600, (tod%3600)/60)
		}
	}
	// Service window ≈ 14 h (12 h daylight + a few hours of battery).
	if len(onAt) > 0 && len(offAt) > 0 {
		window := offAt[len(offAt)-1] - onAt[len(onAt)-1]
		if window < 12*3600 || window > 17*3600 {
			t.Errorf("service window = %.1f h, want ~14 h", window/3600)
		}
	}
}

func TestPowerReserveNeverForComms(t *testing.T) {
	p := NewPower()
	for tick := 0; tick < 2*24*60; tick++ {
		tm := float64(tick) * 60
		p.Step(tm, 60)
		if p.CommsOn && SolarOutputW(tm) < CommsOnSolarW && p.BatteryWh < ReserveWh-50 {
			t.Fatalf("comms running %v Wh below reserve at t=%v", ReserveWh-p.BatteryWh, tm)
		}
	}
}

func TestBalloonNodeConstruction(t *testing.T) {
	b := &flight.Balloon{ID: "hbal-001", Pos: geo.LLADeg(-1, 37, 17000)}
	n := NewBalloonNode(b)
	if n.Kind != KindBalloon || len(n.Xcvrs) != 3 {
		t.Fatalf("balloon node: kind=%v xcvrs=%d", n.Kind, len(n.Xcvrs))
	}
	if n.Position() != b.Pos {
		t.Error("node position must track the vehicle")
	}
	for i, x := range n.Xcvrs {
		want := "hbal-001/xcvr-" + string(rune('0'+i))
		if x.ID != want {
			t.Errorf("xcvr ID = %q, want %q", x.ID, want)
		}
		if x.Node != n {
			t.Error("transceiver must back-reference its node")
		}
	}
	if n.Power == nil {
		t.Error("balloon must have a power system")
	}
}

func TestGroundStationConstruction(t *testing.T) {
	site := geo.LLADeg(-1.3, 36.8, 1600)
	gs := NewGroundStation("gs-nairobi", site, []antenna.Occlusion{})
	if gs.Kind != KindGround || len(gs.Xcvrs) != 2 {
		t.Fatalf("ground node: kind=%v xcvrs=%d", gs.Kind, len(gs.Xcvrs))
	}
	if !gs.Operational() {
		t.Error("ground stations are always operational")
	}
	if gs.Position() != site {
		t.Error("ground position must be the site")
	}
}

func newTestFleet(size int) (*Fleet, *wind.Field) {
	w := wind.NewField(wind.DefaultConfig())
	target := geo.LLADeg(-1, 37, 0)
	cfg := flight.DefaultConfig(target)
	cfg.FleetSize = size
	fms := flight.NewFMS(cfg, w)
	gs := NewGroundStation("gs-0", geo.LLADeg(-1.3, 36.8, 1600), nil)
	return NewFleet(fms, []*Node{gs}), w
}

func TestFleetNodes(t *testing.T) {
	f, _ := newTestFleet(10)
	nodes := f.Nodes()
	if len(nodes) != 11 {
		t.Fatalf("nodes = %d, want 11", len(nodes))
	}
	if nodes[0].Kind != KindGround {
		t.Error("ground stations must come first")
	}
	// Deterministic order.
	for i := 2; i < len(nodes); i++ {
		if nodes[i-1].ID >= nodes[i].ID {
			t.Error("balloon nodes must be ID-sorted")
		}
	}
}

func TestFleetJoinEvents(t *testing.T) {
	f, _ := newTestFleet(10)
	joined, left := f.DrainEvents()
	if len(joined) != 10 || len(left) != 0 {
		t.Fatalf("initial events: joined=%d left=%d", len(joined), len(left))
	}
	// Drain clears.
	joined, left = f.DrainEvents()
	if len(joined) != 0 || len(left) != 0 {
		t.Error("DrainEvents must clear")
	}
}

func TestFleetRecyclingProducesLeaveJoin(t *testing.T) {
	f, w := newTestFleet(10)
	f.FMS.RecycleRadiusM = 80e3 // force recycling quickly
	f.DrainEvents()
	var joined, left int
	for tick := 0; tick < 24*60; tick++ {
		w.Step(60)
		f.Step(float64(tick)*60, 60)
		j, l := f.DrainEvents()
		joined += len(j)
		left += len(l)
	}
	if joined == 0 || left == 0 {
		t.Errorf("recycling produced joined=%d left=%d, want both > 0", joined, left)
	}
	if joined != left {
		t.Errorf("replacement recycling must balance: joined=%d left=%d", joined, left)
	}
	if len(f.Balloons) != 10 {
		t.Errorf("fleet node count drifted to %d", len(f.Balloons))
	}
}

// TestNodeIndicesAreAppendOnly: ground stations take the first indices,
// balloons the next in join order; a recycled vehicle's index keeps
// naming it and is never handed to its replacement.
func TestNodeIndicesAreAppendOnly(t *testing.T) {
	f, w := newTestFleet(10)
	if f.Grounds[0].Index != 0 || f.IDs.Len() != 11 {
		t.Fatalf("ground index = %d, table size = %d; want 0, 11", f.Grounds[0].Index, f.IDs.Len())
	}
	if _, ok := f.IDs.Lookup("no-such-node"); ok {
		t.Error("Lookup invented an index")
	}
	f.FMS.RecycleRadiusM = 80e3 // force recycling quickly
	f.DrainEvents()
	seen := map[int32]string{}
	for tick := 0; tick < 24*60; tick++ {
		w.Step(60)
		before := f.IDs.Len()
		f.Step(float64(tick)*60, 60)
		joined, left := f.DrainEvents()
		for k, n := range joined {
			if int(n.Index) != before+k {
				t.Fatalf("tick %d: %s joined at index %d, want the next free one %d", tick, n.ID, n.Index, before+k)
			}
		}
		for _, n := range append(joined, left...) {
			if was, ok := seen[n.Index]; ok && was != n.ID {
				t.Fatalf("index %d reused: %s, then %s", n.Index, was, n.ID)
			}
			seen[n.Index] = n.ID
			if i, ok := f.IDs.Lookup(n.ID); !ok || i != n.Index || f.IDs.Name(i) != n.ID {
				t.Fatalf("table and node disagree on %s: Lookup = %d, %v; Index = %d", n.ID, i, ok, n.Index)
			}
		}
	}
	if f.IDs.Len() != 11+f.FMS.Recycled || f.FMS.Recycled == 0 {
		t.Errorf("table size %d after %d recycled vehicles, want %d", f.IDs.Len(), f.FMS.Recycled, 11+f.FMS.Recycled)
	}
}

// TestNodesViewSurvivesMembershipChange: Nodes hands out the fleet's own
// slice without allocating, and a membership change replaces it — a
// caller still ranging over the old one sees the fleet as it was.
func TestNodesViewSurvivesMembershipChange(t *testing.T) {
	f, w := newTestFleet(10)
	if allocs := testing.AllocsPerRun(100, func() { f.Nodes() }); allocs != 0 {
		t.Errorf("Nodes allocates %.0f times per call", allocs)
	}
	f.FMS.RecycleRadiusM = 80e3
	view := f.Nodes()
	was := slices.Clone(view)
	for tick := 0; f.FMS.Recycled == 0; tick++ {
		w.Step(60)
		f.Step(float64(tick)*60, 60)
	}
	if !slices.Equal(view, was) {
		t.Error("a held Nodes view was edited by a membership change")
	}
	now := f.Nodes()
	if slices.Equal(now, was) || len(now) != 1+len(f.Balloons) || now[0] != f.Grounds[0] {
		t.Fatalf("fresh view does not reflect the recycled fleet: %v", now)
	}
	for i, n := range now[1:] {
		if f.Balloons[n.ID] != n || (i > 0 && now[i].ID >= n.ID) {
			t.Errorf("fresh view entry %d (%s) is not the fleet's balloons in ID order", i+1, n.ID)
		}
	}
}

// operational returns f's nodes whose payloads are powered.
func operational(f *Fleet) []*Node {
	var out []*Node
	for _, n := range f.Nodes() {
		if n.Operational() {
			out = append(out, n)
		}
	}
	return out
}

func TestOperationalFollowsPower(t *testing.T) {
	f, w := newTestFleet(5)
	// At midnight no balloon is operational; the ground station is.
	ops := operational(f)
	if len(ops) != 1 || ops[0].Kind != KindGround {
		t.Errorf("at t=0 (midnight) only the GS should be operational, got %d", len(ops))
	}
	// Advance to mid-day.
	for tick := 0; tick < 12*60; tick++ {
		w.Step(60)
		f.Step(float64(tick)*60, 60)
	}
	ops = operational(f)
	if len(ops) != 6 {
		t.Errorf("at noon all 6 nodes should be operational, got %d", len(ops))
	}
}

func TestTransceiversEnumeration(t *testing.T) {
	f, w := newTestFleet(5)
	for tick := 0; tick < 12*60; tick++ {
		w.Step(60)
		f.Step(float64(tick)*60, 60)
	}
	xs := f.Transceivers()
	// 1 GS × 2 + 5 balloons × 3 = 17.
	if len(xs) != 17 {
		t.Fatalf("transceivers = %d, want 17", len(xs))
	}
	buf := f.AppendTransceivers(make([]*Transceiver, 0, len(xs)))
	if !slices.Equal(buf, xs) {
		t.Error("AppendTransceivers and Transceivers list different transceivers")
	}
	if allocs := testing.AllocsPerRun(10, func() { buf = f.AppendTransceivers(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendTransceivers into a reused buffer allocates %.0f times", allocs)
	}

	seen := map[string]bool{}
	for _, x := range xs {
		if seen[x.ID] {
			t.Errorf("duplicate transceiver %s", x.ID)
		}
		seen[x.ID] = true
	}
}

func BenchmarkFleetStep(b *testing.B) {
	f, w := newTestFleet(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(60)
		f.Step(float64(i)*60, 60)
	}
}
