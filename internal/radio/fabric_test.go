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

// testWorld builds two balloons 300 km apart and a ground station,
// all operational, over a quiet weather field.
func testWorld(t *testing.T, cfg Config) (*sim.Engine, *Fabric, []*platform.Node) {
	t.Helper()
	eng := sim.New(1)
	wcfg := weather.DefaultConfig()
	wcfg.CellSpawnPerHour = 0 // clear skies unless a test wants rain
	wx := weather.NewField(wcfg)
	fab := NewFabric(eng, wx, platform.NewIDs(), cfg)

	mkBalloon := func(id string, lonDeg float64) *platform.Node {
		b := &flight.Balloon{ID: id, Pos: geo.LLADeg(-1, lonDeg, 18000)}
		n := platform.NewBalloonNode(b)
		n.Power.CommsOn = true // force daytime
		n.Power.BatteryWh = platform.BatteryCapacityWh
		return n
	}
	n1 := mkBalloon("hbal-001", 36.5)
	n2 := mkBalloon("hbal-002", 39.2) // ~300 km east
	gs := platform.NewGroundStation("gs-0", geo.LLADeg(-1, 36.3, 1600), nil)
	return eng, fab, []*platform.Node{n1, n2, gs}
}

// reliable returns a config with no random failures for deterministic
// establishment tests.
func reliable() Config {
	cfg := DefaultConfig()
	cfg.FlakeProb = 0
	cfg.PersistentFailProb = 0
	cfg.SideLobeProb = 0
	cfg.GlitchProbPerCheck = 0
	cfg.TrackingNoiseDB = 0
	cfg.B2GUnstableBase = 0
	cfg.B2GStableHazard = 0
	return cfg
}

func TestEstablishSucceeds(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	var ups, downs int
	fab.OnUp = func(*Link) { ups++ }
	fab.OnDown = func(*Link, Reason) { downs++ }
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	if l == nil {
		t.Fatal("establish returned nil")
	}
	if l.State != StateSlewing {
		t.Errorf("initial state = %v", l.State)
	}
	eng.Run(300)
	if !l.Up() {
		t.Fatalf("link not up after 5 min: %v (reason %v)", l.State, l.EndReason)
	}
	if ups != 1 || downs != 0 {
		t.Errorf("callbacks: ups=%d downs=%d", ups, downs)
	}
	if !l.Measured.Closes() {
		t.Error("up link must have a closing budget")
	}
	if l.EstablishedAt <= l.CommandedAt {
		t.Error("establishment must take time (slew + search)")
	}
}

func TestEstablishMarksBusy(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	xa, xb := nodes[0].Xcvrs[0], nodes[1].Xcvrs[0]
	if fab.Establish(xa, xb, rf.EBandChannels()[0], 1) == nil {
		t.Fatal("first establish failed")
	}
	if !xa.Busy || !xb.Busy {
		t.Error("transceivers must be busy during establishment")
	}
	// Tasking a busy transceiver must fail.
	if fab.Establish(xa, nodes[2].Xcvrs[0], rf.EBandChannels()[1], 1) != nil {
		t.Error("establish on busy transceiver should return nil")
	}
	eng.Run(300)
	// Same-platform pairing must fail.
	if fab.Establish(nodes[0].Xcvrs[1], nodes[0].Xcvrs[2], rf.EBandChannels()[1], 1) != nil {
		t.Error("same-platform link should be rejected")
	}
}

func TestWithdrawFreesTransceivers(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	var downReason Reason
	fab.OnDown = func(_ *Link, r Reason) { downReason = r }
	xa, xb := nodes[0].Xcvrs[0], nodes[1].Xcvrs[0]
	l := fab.Establish(xa, xb, rf.EBandChannels()[0], 1)
	eng.Run(300)
	if !l.Up() {
		t.Fatal("precondition: link up")
	}
	if !fab.Withdraw(l.ID) {
		t.Fatal("withdraw failed")
	}
	if xa.Busy || xb.Busy {
		t.Error("withdraw must free the transceivers")
	}
	if downReason != ReasonWithdrawn {
		t.Errorf("reason = %v, want withdrawn", downReason)
	}
	if len(fab.History()) != 1 {
		t.Errorf("history length = %d", len(fab.History()))
	}
	if l.Lifetime() <= 0 {
		t.Error("completed link must report a lifetime")
	}
}

func TestOutOfRangeFails(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	// Move balloon 2 out to 1000 km: beyond LOS/budget.
	nodes[1].Balloon.Pos = geo.Offset(geo.LLADeg(-1, 36.5, 18000), geo.Deg(90), 1000e3)
	nodes[1].Balloon.Pos.Alt = 18000
	var reason Reason
	fab.OnDown = func(_ *Link, r Reason) { reason = r }
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(600)
	if l.Up() {
		t.Fatal("1000 km link should not establish")
	}
	if reason != ReasonGeometry && reason != ReasonAcquireFailed {
		t.Errorf("reason = %v, want geometry or acquire-failed", reason)
	}
}

func TestPowerLossKillsLink(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	var reason Reason
	fab.OnDown = func(_ *Link, r Reason) { reason = r }
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(300)
	if !l.Up() {
		t.Fatal("precondition: link up")
	}
	// Kill node 2's payload.
	nodes[1].Power.CommsOn = false
	eng.Run(400)
	if l.Up() {
		t.Fatal("link must drop when an endpoint loses power")
	}
	if reason != ReasonPowerLoss {
		t.Errorf("reason = %v, want power-loss", reason)
	}
}

func TestRainFadeKillsB2GLink(t *testing.T) {
	eng := sim.New(1)
	wcfg := weather.DefaultConfig()
	wcfg.CellSpawnPerHour = 0
	wx := weather.NewField(wcfg)
	fab := NewFabric(eng, wx, platform.NewIDs(), reliable())

	b := &flight.Balloon{ID: "hbal-001", Pos: geo.LLADeg(-1, 37.5, 18000)}
	bn := platform.NewBalloonNode(b)
	bn.Power.CommsOn = true
	gsPos := geo.LLADeg(-1, 36.3, 1600)
	gs := platform.NewGroundStation("gs-0", gsPos, nil)

	var reason Reason
	fab.OnDown = func(_ *Link, r Reason) { reason = r }
	l := fab.Establish(gs.Xcvrs[0], bn.Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(300)
	if !l.Up() {
		t.Fatalf("precondition: B2G link up, state=%v", l.State)
	}
	// Park a violent storm cell over the ground station.
	wx.InjectCell(gsPos, 15e3, 120, 9000, 7200)
	eng.Run(600)
	if l.Up() {
		t.Fatal("B2G link must fade out under a 120 mm/h storm")
	}
	if reason != ReasonRFFade {
		t.Errorf("reason = %v, want rf-fade", reason)
	}
}

func TestB2BLinkSurvivesStorm(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(300)
	if !l.Up() {
		t.Fatal("precondition: B2B link up")
	}
	// The same storm at ground level doesn't touch an 18 km B2B path.
	fabWx(fab).InjectCell(geo.LLADeg(-1, 37.8, 0), 15e3, 120, 9000, 7200)
	eng.Run(600)
	if !l.Up() {
		t.Error("B2B link at 18 km must fly above the storm")
	}
}

// fabWx exposes the fabric's weather field for test injection.
func fabWx(f *Fabric) *weather.Field { return f.wx }

func TestCursedPairNeverSucceeds(t *testing.T) {
	cfg := reliable()
	cfg.PersistentFailProb = 1.0 // every pair cursed
	eng, fab, nodes := testWorld(t, cfg)
	for attempt := 1; attempt <= 5; attempt++ {
		l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], attempt)
		if l == nil {
			t.Fatal("establish rejected")
		}
		eng.Run(eng.Now() + 300)
		if l.Up() {
			t.Fatal("cursed pair must never come up")
		}
		if l.EndReason != ReasonAcquireFailed {
			t.Fatalf("reason = %v", l.EndReason)
		}
	}
}

func TestFirstAttemptSuccessRate(t *testing.T) {
	// With the default config the first-attempt success rate across
	// many fresh pairs should be in the paper's ballpark (51% B2G /
	// 40% B2B → overall roughly 0.35–0.65 given our flake+curse
	// model).
	cfg := DefaultConfig()
	eng := sim.New(7)
	wcfg := weather.DefaultConfig()
	wcfg.CellSpawnPerHour = 0
	wx := weather.NewField(wcfg)
	fab := NewFabric(eng, wx, platform.NewIDs(), cfg)
	success, total := 0, 0
	for i := 0; i < 60; i++ {
		b1 := &flight.Balloon{ID: "a", Pos: geo.LLADeg(-1, 36.5, 18000)}
		b2 := &flight.Balloon{ID: "b", Pos: geo.LLADeg(-1, 38.0, 18000)}
		n1, n2 := platform.NewBalloonNode(b1), platform.NewBalloonNode(b2)
		n1.Power.CommsOn, n2.Power.CommsOn = true, true
		// Unique IDs per round so each pair is "fresh".
		n1.Xcvrs[0].ID = n1.Xcvrs[0].ID + string(rune('A'+i%26)) + string(rune('a'+i/26))
		l := fab.Establish(n1.Xcvrs[0], n2.Xcvrs[0], rf.EBandChannels()[0], 1)
		eng.Run(eng.Now() + 300)
		total++
		if l.Up() {
			success++
			fab.Withdraw(l.ID)
		}
	}
	rate := float64(success) / float64(total)
	if rate < 0.30 || rate > 0.75 {
		t.Errorf("first-attempt success rate = %.2f, want ~0.35–0.65", rate)
	}
}

func TestNeighborsAndNodeUp(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	fab.Establish(nodes[0].Xcvrs[1], nodes[2].Xcvrs[0], rf.EBandChannels()[1], 1)
	eng.Run(300)
	nb := fab.Neighbors("hbal-001")
	if len(nb) != 2 {
		t.Fatalf("neighbors of hbal-001 = %v", nb)
	}
	if nb[0] != "gs-0" || nb[1] != "hbal-002" {
		t.Errorf("neighbors = %v, want sorted [gs-0 hbal-002]", nb)
	}
	if !fab.NodeUp("hbal-002") {
		t.Error("hbal-002 should have an installed link")
	}
	if _, ok := fab.LinkBetween("hbal-001", "gs-0"); !ok {
		t.Error("LinkBetween should find the B2G link")
	}
	if _, ok := fab.LinkBetween("hbal-002", "gs-0"); ok {
		t.Error("no link exists between hbal-002 and gs-0")
	}
}

func TestTransmitDelay(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(300)
	if !l.Up() {
		t.Fatal("precondition")
	}
	start := eng.Now()
	var deliveredAt float64 = -1
	var ok bool
	fab.Transmit(l, 1500, func(success bool) {
		ok = success
		deliveredAt = eng.Now()
	})
	eng.Run(start + 10)
	if !ok {
		t.Fatal("transmit failed on an up link")
	}
	delay := deliveredAt - start
	// ~300 km: 1 ms propagation + tiny serialization + 2 ms floor.
	if delay < 0.001 || delay > 0.1 {
		t.Errorf("delivery delay = %v s, want milliseconds", delay)
	}
}

func TestTransmitOnDeadLink(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(300)
	fab.Withdraw(l.ID)
	delivered := false
	var ok bool
	fab.Transmit(l, 100, func(success bool) { delivered = true; ok = success })
	eng.Run(eng.Now() + 10)
	if !delivered || ok {
		t.Error("transmit on a dead link must complete with failure")
	}
}

func TestSideLobeLockDegradesSignal(t *testing.T) {
	cfg := reliable()
	cfg.SideLobeProb = 1.0 // always lock the side lobe
	eng, fab, nodes := testWorld(t, cfg)
	// Move the balloons closer so even -14 dB closes.
	nodes[1].Balloon.Pos = geo.LLADeg(-1, 37.4, 18000) // ~100 km
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(300)
	if !l.Up() {
		t.Fatalf("side-lobe link at 100 km should still close, state=%v reason=%v", l.State, l.EndReason)
	}
	if !l.SideLobe {
		t.Fatal("link must be marked side-lobe locked")
	}
	// Compare with a main-lobe link on the other mounts.
	cfg2 := reliable()
	eng2, fab2, nodes2 := testWorld(t, cfg2)
	nodes2[1].Balloon.Pos = geo.LLADeg(-1, 37.4, 18000)
	l2 := fab2.Establish(nodes2[0].Xcvrs[0], nodes2[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	eng2.Run(300)
	diff := l2.Measured.RxPowerDBm - l.Measured.RxPowerDBm
	if diff < 12 || diff > 16 {
		t.Errorf("side-lobe penalty = %v dB, want ~14", diff)
	}
}

func TestLinkIDCanonical(t *testing.T) {
	a := MakeLinkID("x/1", "a/2")
	b := MakeLinkID("a/2", "x/1")
	if a != b {
		t.Error("link IDs must be order-independent")
	}
	if a.A != "a/2" || a.B != "x/1" {
		t.Error("link ID must be lexicographically ordered")
	}
}

func BenchmarkEstablishTeardown(b *testing.B) {
	eng, fab, nodes := testWorld(&testing.T{}, reliable())
	ch := rf.EBandChannels()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], ch, 1)
		eng.Run(eng.Now() + 200)
		if l != nil && l.Up() {
			fab.Withdraw(l.ID)
		}
	}
}

// Transmit models sending size bytes over an installed link, invoking
// done(true) after propagation + serialization delay, or done(false)
// immediately if the link is not up. Jitter of ±20% models queueing.
func (f *Fabric) Transmit(l *Link, size int, done func(bool)) {
	if l == nil || !l.Up() {
		if done != nil {
			f.eng.After(0, func() { done(false) })
		}
		return
	}
	ser := float64(size*8) / l.Measured.BitrateBps
	delay := PropagationDelay(l) + ser
	delay *= 0.9 + 0.2*f.rng().Float64()
	// Tiny floor models switching/processing latency.
	delay += 0.002
	f.eng.After(delay, func() {
		if done != nil {
			done(l.Up())
		}
	})
}
