package radio

import (
	"math/rand"
	"slices"
	"testing"

	"minkowski/internal/geo"
	"minkowski/internal/platform"
	"minkowski/internal/rf"
)

// TestPathMemoMatchesFreshIntegration walks the world at random —
// balloons drift, the weather steps, mild drizzle falls on the ground
// stations between steps — and after every check holds each up link's
// memoised range and attenuation to a fresh computation, bit for bit.
// A mutator that forgot to announce itself (no version bump, a position
// changed in place) leaves a stale memo behind and fails here.
func TestPathMemoMatchesFreshIntegration(t *testing.T) {
	cfg := reliable()
	eng, fab, nodes := meshWorld(3, cfg)
	wx := fabWx(fab)
	rng := rand.New(rand.NewSource(3))
	var xcvrs []*platform.Transceiver
	for _, n := range nodes {
		xcvrs = append(xcvrs, n.Xcvrs...)
	}
	// establish tasks random transceiver pairs, every other one from a
	// ground station; fields of regard and range decide which of them
	// become links.
	ground := append(slices.Clone(nodes[6].Xcvrs), nodes[7].Xcvrs...)
	establish := func() {
		for i := 0; i < 12; i++ {
			xa := xcvrs[rng.Intn(len(xcvrs))]
			if i%2 == 0 {
				xa = ground[rng.Intn(len(ground))]
			}
			fab.Establish(xa, xcvrs[rng.Intn(len(xcvrs))], rf.EBandChannels()[rng.Intn(2)], 1)
		}
	}
	b2gUp := func() (n int) {
		for _, l := range fab.UpLinks() {
			if l.IsB2G() {
				n++
			}
		}
		return n
	}
	for i := 0; i < 20 && (fab.UpCount() < 6 || b2gUp() == 0); i++ {
		establish()
		eng.Run(eng.Now() + 150)
	}
	if fab.UpCount() < 6 || b2gUp() == 0 {
		t.Fatalf("precondition: %d links up (%d to ground), want at least 6 (1)", fab.UpCount(), b2gUp())
	}

	verified, b2gVerified := 0, 0 // only links through the weather can go stale on it
	for step := 0; step < 600; step++ {
		switch rng.Intn(6) {
		case 0: // a fleet step: every balloon drifts a little
			for _, n := range nodes[:6] {
				n.Balloon.Pos = geo.Offset(n.Balloon.Pos, rng.Float64()*6, 300*rng.Float64())
				n.Balloon.Pos.Alt += 20 * (rng.Float64() - 0.5)
			}
		case 1:
			wx.Step(60)
		case 2: // a drizzle over a ground station, between world steps
			gs := nodes[6+rng.Intn(2)].FixedPos
			wx.InjectCell(geo.Offset(gs, rng.Float64()*6, 8e3*rng.Float64()), 10e3, 0.2+0.6*rng.Float64(), 6000, 300)
		case 3:
			establish() // re-task whatever has fallen
		}
		eng.Run(eng.Now() + cfg.CheckInterval)
		for _, l := range fab.UpLinks() {
			posA, posB := l.XA.Node.Position(), l.XB.Node.Position()
			dist := geo.SlantRange(posA, posB)
			atmos := wx.PathAttenuation(l.Channel.CenterGHz, posA, posB)
			// Exact: the memo must reproduce the integration's bits.
			if l.path == nil || l.path.dist != dist || l.path.atmos != atmos {
				t.Fatalf("step %d, %s: memo %+v, fresh dist %v atmos %v", step, l.ID, l.path, dist, atmos)
			}
			verified++
			if l.IsB2G() {
				b2gVerified++
			}
		}
	}
	if verified < 2000 || b2gVerified < 300 {
		t.Errorf("only %d link checks verified, %d of them to ground; the walk lost its links", verified, b2gVerified)
	}
	if fab.PathIntegrations == 0 || fab.PathIntegrations >= fab.LinkChecks {
		t.Errorf("PathIntegrations = %d of %d LinkChecks: the walk must both hit and miss the memo",
			fab.PathIntegrations, fab.LinkChecks)
	}
	for _, l := range fab.History() {
		if l.path != nil {
			t.Fatalf("ended link %s still holds its memo", l.ID)
		}
	}
}

// TestMidTickStormFadesWithinHysteresis parks a violent storm on a B2G
// link in an otherwise still world, as between two world ticks: the
// link must be gone FadeHysteresis checks later without waiting for a
// tick — the field announces the injection itself.
func TestMidTickStormFadesWithinHysteresis(t *testing.T) {
	cfg := reliable()
	eng := newWorldEngine() // nothing steps the world during the test
	fab, gs, bn := b2gWorld(eng, cfg)

	l := fab.Establish(gs.Xcvrs[0], bn.Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(303) // between two checks
	if !l.Up() {
		t.Fatalf("precondition: B2G link up, state=%v", l.State)
	}
	before := fab.PathIntegrations
	eng.Run(333)
	if fab.PathIntegrations != before {
		t.Fatalf("a still world was integrated %d times in 3 checks", fab.PathIntegrations-before)
	}
	fabWx(fab).InjectCell(gs.FixedPos, 15e3, 120, 9000, 7200)
	eng.Run(333 + float64(cfg.FadeHysteresis)*cfg.CheckInterval)
	if l.Up() || l.EndReason != ReasonRFFade {
		t.Fatalf("link state %v (reason %v) %d checks after a 120 mm/h storm; want down by rf-fade",
			l.State, l.EndReason, cfg.FadeHysteresis)
	}
}
