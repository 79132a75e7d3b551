package manet

import (
	"slices"
	"testing"

	"minkowski/internal/flight"
	"minkowski/internal/geo"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/rf"
	"minkowski/internal/sim"
	"minkowski/internal/weather"
)

// fabricLine installs gs-0 — hbal-001 — hbal-002 on a real fabric with
// every random failure switched off.
func fabricLine(t *testing.T) (*sim.Engine, *FabricNet) {
	t.Helper()
	eng := sim.New(1)
	wcfg := weather.DefaultConfig()
	wcfg.CellSpawnPerHour = 0
	cfg := radio.DefaultConfig()
	cfg.FlakeProb, cfg.PersistentFailProb, cfg.SideLobeProb = 0, 0, 0
	cfg.GlitchProbPerCheck, cfg.TrackingNoiseDB = 0, 0
	cfg.B2GUnstableBase, cfg.B2GStableHazard = 0, 0
	fms := &flight.FMS{Fleet: []*flight.Balloon{
		{ID: "hbal-001", Pos: geo.LLADeg(-1, 36.5, 18000)},
		{ID: "hbal-002", Pos: geo.LLADeg(-1, 39.2, 18000)},
	}}
	gs := platform.NewGroundStation("gs-0", geo.LLADeg(-1, 36.3, 1600), nil)
	fleet := platform.NewFleet(fms, []*platform.Node{gs})
	for _, n := range fleet.Balloons() {
		n.Power.CommsOn = true
		n.Power.BatteryWh = platform.BatteryCapacityWh
	}
	fab := radio.NewFabric(eng, weather.NewField(wcfg), fleet.IDs, cfg)
	b1, b2 := fleet.Named("hbal-001"), fleet.Named("hbal-002")
	fab.Establish(b1.Xcvrs[0], b2.Xcvrs[0], rf.EBandChannels()[0], 1)
	fab.Establish(b1.Xcvrs[1], gs.Xcvrs[0], rf.EBandChannels()[1], 1)
	eng.Run(300)
	if fab.UpCount() != 2 {
		t.Fatalf("precondition: 2 links up, have %d", fab.UpCount())
	}
	return eng, &FabricNet{Fabric: fab, Fleet: fleet}
}

func TestFabricNetDeafDirection(t *testing.T) {
	_, net := fabricLine(t)
	gs, b1, b2 := at(net, "gs-0"), at(net, "hbal-001"), at(net, "hbal-002")
	if !net.AdjacentAt(b1, b2) || !net.AdjacentAt(b2, b1) {
		t.Fatal("installed link must be adjacent both ways")
	}
	if net.AdjacentAt(b2, gs) {
		t.Error("no link joins hbal-002 and gs-0")
	}
	net.SetDeaf("hbal-001", "hbal-002", true)
	if net.AdjacentAt(b1, b2) {
		t.Error("deaf direction must not be adjacent")
	}
	if !net.AdjacentAt(b2, b1) {
		t.Error("reverse of a deaf direction stays adjacent")
	}
	if nb := net.NeighborsAt(b1); !slices.Equal(nb, []int32{gs}) {
		t.Errorf("NeighborsAt with a deaf edge = %v, want [gs-0]", nb)
	}
	// Filtering must not have edited the fabric's own slice.
	if nb := net.Fabric.NeighborsAt(b1); !slices.Equal(nb, []int32{gs, b2}) {
		t.Errorf("fabric neighbours after a filtered read = %v", nb)
	}
	net.SetDeaf("hbal-001", "hbal-002", false)
	if !net.AdjacentAt(b1, b2) {
		t.Error("a restored direction must be adjacent again")
	}
}
