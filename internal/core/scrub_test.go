package core

import (
	"reflect"
	"testing"

	"minkowski/internal/chaos"
	"minkowski/internal/explain"
	"minkowski/internal/radio"
)

// recordState is the recorder the scrubber used to keep: at the end
// of a solve cycle, the fabric's up links in its order, the acting
// intent store's state for each, its active routes and the plan's
// value, copied out of the live state.
func recordState(c *Controller) explain.State {
	st := explain.State{At: c.Eng.Now(), Value: c.lastPlan.Utility}
	intents := map[radio.LinkID]string{}
	for _, li := range c.Intents.ActiveLinks() {
		intents[li.Link] = li.State.String()
	}
	for _, l := range c.Fabric.UpLinks() {
		st.Links = append(st.Links, explain.Installed{ID: l.ID, Intent: intents[l.ID]})
	}
	for _, ri := range c.Intents.ActiveRoutes() {
		st.Routes = append(st.Routes, explain.Route{ID: ri.ID, Path: ri.Path})
	}
	return st
}

// TestScrubberFoldMatchesRecorder steps each scenario one event at a
// time, records the state after every solve cycle that planned, and
// wants the change-log's fold at each cycle's time to equal it.
func TestScrubberFoldMatchesRecorder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fleet int
		hours float64
		// faults, when set, run on replConfig(7).
		faults []chaos.Fault
	}{
		{"explain-10", 10, 3, nil},
		{"canonical-21", 21, 24, nil},
		{"fleet-56", 56, 4, nil},
		{"failover", 0, 3, []chaos.Fault{{Kind: chaos.ControllerFailover, At: 3600, Duration: 1200}}},
		{"partition", 0, 3, []chaos.Fault{{Kind: chaos.ControllerPartition, At: 3600, Duration: 1200}}},
		{"crash", 0, 3, []chaos.Fault{{Kind: chaos.ControllerCrash, At: 3600, Duration: 1200}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && tc.hours > 4 {
				t.Skip("24 sim-hours")
			}
			cfg := DefaultConfig()
			cfg.Seed = 1
			cfg.FleetSize = tc.fleet
			cfg.DisablePower = tc.fleet == 10 // cmd/explain's scenario
			if tc.faults != nil {
				cfg = replConfig(7)
			}
			c := New(cfg)
			if tc.faults != nil {
				mustInstallChaos(c, chaos.Scenario{Name: tc.name, Faults: tc.faults})
			}
			until := tc.hours * 3600
			var recorded []explain.State
			runs := c.SolveRuns
			for c.Eng.Step() && c.Eng.Now() <= until {
				if c.SolveRuns != runs && !c.solverDown && len(c.Fleet.Transceivers()) > 0 {
					recorded = append(recorded, recordState(c))
				}
				runs = c.SolveRuns
			}
			if len(recorded) < 90 {
				t.Fatalf("%d solve cycles recorded, want at least 90", len(recorded))
			}
			for _, want := range recorded {
				got, ok := c.Log.StateAt(want.At)
				if !ok || !reflect.DeepEqual(got, want) {
					t.Fatalf("t=%.0f: fold %+v (ok=%v)\nrecorder %+v", want.At, got, ok, want)
				}
			}
			t.Logf("%d solve cycles equal", len(recorded))
		})
	}
}
