package radio

import (
	"testing"

	"minkowski/internal/flight"
	"minkowski/internal/geo"
	"minkowski/internal/platform"
	"minkowski/internal/rf"
	"minkowski/internal/sim"
	"minkowski/internal/weather"
)

func TestFailNode(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	l1 := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	l2 := fab.Establish(nodes[0].Xcvrs[1], nodes[2].Xcvrs[0], rf.EBandChannels()[1], 1)
	eng.Run(300)
	if !l1.Up() || !l2.Up() {
		t.Fatal("precondition: both links up")
	}
	var reasons []Reason
	fab.OnDown = func(_ *Link, r Reason) { reasons = append(reasons, r) }
	// hbal-001 (nodes[0]) is on both links: failing it must end both.
	fab.FailNode("hbal-001", ReasonGeometry)
	if l1.Up() || l2.Up() {
		t.Error("FailNode must end every touching link")
	}
	if len(reasons) != 2 {
		t.Fatalf("down callbacks = %d, want 2", len(reasons))
	}
	for _, r := range reasons {
		if r != ReasonGeometry {
			t.Errorf("reason = %v", r)
		}
	}
	// Transceivers are freed.
	if nodes[0].Xcvrs[0].Busy || nodes[0].Xcvrs[1].Busy {
		t.Error("FailNode must free transceivers")
	}
	// Failing an unknown node is a no-op.
	fab.FailNode("nope", ReasonGeometry)
}

func TestUpLinksAndHistoryOrdering(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	fab.Establish(nodes[0].Xcvrs[1], nodes[2].Xcvrs[0], rf.EBandChannels()[1], 1)
	eng.Run(300)
	ups := fab.UpLinks()
	if len(ups) != 2 {
		t.Fatalf("up links = %d", len(ups))
	}
	for i := 1; i < len(ups); i++ {
		if ups[i-1].ID.A > ups[i].ID.A {
			t.Error("UpLinks must be sorted by ID")
		}
	}
	for _, l := range ups {
		fab.Withdraw(l.ID)
	}
	if len(fab.UpLinks()) != 0 {
		t.Error("links remain after withdrawal")
	}
	if len(fab.History()) != 2 {
		t.Errorf("history = %d", len(fab.History()))
	}
}

func TestGetAndLinkState(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	if _, ok := fab.Get(l.ID); !ok {
		t.Error("live link must be gettable")
	}
	if got := l.State.String(); got != "slewing" {
		t.Errorf("state = %q", got)
	}
	eng.Run(300)
	if got := l.State.String(); got != "up" {
		t.Errorf("state = %q", got)
	}
	fab.Withdraw(l.ID)
	if _, ok := fab.Get(l.ID); ok {
		t.Error("retired link must not be gettable")
	}
	if got := l.State.String(); got != "down" {
		t.Errorf("state = %q", got)
	}
}

func TestDuplicateEstablishRejected(t *testing.T) {
	_, fab, nodes := testWorld(t, reliable())
	if fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1) == nil {
		t.Fatal("first establish failed")
	}
	if fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1) != nil {
		t.Error("duplicate link ID must be rejected")
	}
}

func TestB2GUnstableRegimeShortLived(t *testing.T) {
	// With the unstable regime forced, B2G links must die within a
	// few minutes of establishment.
	cfg := reliable()
	cfg.B2GUnstableBase = 1.0 // always unstable
	cfg.B2GUnstableHazard = 0.08
	eng := newWorldEngine()
	fab, gs, bn := b2gWorld(eng, cfg)
	l := fab.Establish(gs.Xcvrs[0], bn.Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(2000)
	if l.EstablishedAt == 0 {
		t.Fatalf("link never established: %v/%v", l.State, l.EndReason)
	}
	if !l.Unstable {
		t.Fatal("link must be in the unstable regime")
	}
	if l.Up() {
		t.Fatal("unstable B2G link survived 30+ min at 8%/check hazard")
	}
	if l.EndReason != ReasonRFFade {
		t.Errorf("reason = %v", l.EndReason)
	}
	// An 8%/check hazard has a ~110 s median life; even a lucky draw
	// should be gone well within 10 minutes.
	if life := l.Lifetime(); life > 600 {
		t.Errorf("unstable link lived %v s", life)
	}
}

func TestB2GStableRegimeLongLived(t *testing.T) {
	cfg := reliable()
	cfg.B2GUnstableBase = 0 // never unstable
	cfg.B2GStableHazard = 0
	eng := newWorldEngine()
	fab, gs, bn := b2gWorld(eng, cfg)
	l := fab.Establish(gs.Xcvrs[0], bn.Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(200)
	if !l.Up() {
		t.Fatal("precondition")
	}
	eng.Run(eng.Now() + 3600)
	if !l.Up() {
		t.Errorf("stable clear-sky B2G link died: %v", l.EndReason)
	}
}

func TestPropagationDelayScales(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(300)
	d := PropagationDelay(l)
	// ~300 km at light speed ≈ 1 ms.
	if d < 0.0008 || d > 0.0015 {
		t.Errorf("propagation delay = %v s, want ~1 ms", d)
	}
}

// Helpers shared by the regime tests.

func newWorldEngine() *sim.Engine { return sim.New(1) }

func b2gWorld(eng *sim.Engine, cfg Config) (*Fabric, *platform.Node, *platform.Node) {
	wcfg := weather.DefaultConfig()
	wcfg.CellSpawnPerHour = 0
	wx := weather.NewField(wcfg)
	fab := NewFabric(eng, wx, platform.NewIDs(), cfg)
	gs := platform.NewGroundStation("gs-0", geo.LLADeg(-1, 36.3, 1600), nil)
	b := &flight.Balloon{ID: "hbal-001", Pos: geo.LLADeg(-1, 37.3, 18000)}
	bn := platform.NewBalloonNode(b)
	bn.Power.CommsOn = true
	return fab, gs, bn
}
