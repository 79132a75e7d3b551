package minkowski

import (
	"math"
	"strings"
	"testing"

	"minkowski/internal/explain"
)

func quickScenario(seed int64) Scenario {
	s := DefaultScenario()
	s.Seed = seed
	s.FleetSize = 6
	s.SolveIntervalS = 60
	s.DisablePower = true
	s.AgentConnCheckS = 5
	return s
}

func TestQuickstartFlow(t *testing.T) {
	sim := NewSimulation(quickScenario(1))
	sim.RunHours(2)
	if len(sim.Links()) == 0 {
		t.Fatal("no links")
	}
	nodes := sim.Nodes()
	if len(nodes) != 9 { // 3 GS + 6 balloons
		t.Fatalf("nodes = %d", len(nodes))
	}
	grounds := 0
	for _, n := range nodes {
		if n.Kind == "ground" {
			grounds++
			if !n.Operational {
				t.Error("ground stations must be operational")
			}
		}
	}
	if grounds != 3 {
		t.Errorf("grounds = %d", grounds)
	}
	if len(sim.Routes()) == 0 {
		t.Error("no programmed routes")
	}
	sum := sim.Summary()
	for _, want := range []string{"links:", "balloons:", "availability:", "routes:"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestAvailabilityLayering(t *testing.T) {
	sim := NewSimulation(quickScenario(2))
	sim.RunHours(4)
	link, control, data := sim.Availability()
	for name, v := range map[string]float64{"link": link, "control": control, "data": data} {
		if math.IsNaN(v) || v <= 0 {
			t.Errorf("%s availability = %v", name, v)
		}
	}
	// To a first order the layers depend on one another (§3.2): data
	// cannot exceed control by much, nor control exceed link by much.
	if data > control+0.1 {
		t.Errorf("data (%v) should not exceed control (%v)", data, control)
	}
}

func TestEventQueriesAndScrubber(t *testing.T) {
	sim := NewSimulation(quickScenario(3))
	sim.RunHours(1)
	if len(sim.Events(explain.Filter{Kind: explain.EvSolve})) == 0 {
		t.Error("no solve events visible through the public API")
	}
	if _, ok := sim.StateAt(1800); !ok {
		t.Error("no snapshot at t=30min")
	}
}

func TestWhyNotPublicAPI(t *testing.T) {
	sim := NewSimulation(quickScenario(4))
	sim.RunHours(1)
	links := sim.Links()
	if len(links) == 0 {
		t.Fatal("no links")
	}
	// Ask about an unknown transceiver.
	if got := sim.WhyNot("nope/xcvr-0", "nada/xcvr-1"); got != "unknown transceiver" {
		t.Errorf("WhyNot unknown = %q", got)
	}
	// Ask about a same-platform pair.
	nodes := sim.Nodes()
	var balloon string
	for _, n := range nodes {
		if n.Kind == "balloon" {
			balloon = n.ID
			break
		}
	}
	got := sim.WhyNot(balloon+"/xcvr-0", balloon+"/xcvr-1")
	if !strings.Contains(got, "same platform") {
		t.Errorf("WhyNot same-platform = %q", got)
	}
}

func TestDeterministicPublicRuns(t *testing.T) {
	run := func() string {
		sim := NewSimulation(quickScenario(6))
		sim.RunHours(1)
		return sim.Summary()
	}
	if run() != run() {
		t.Error("identical scenarios must give identical summaries")
	}
}

// TestInjectFaultsRejectsUnknownNode: a fault naming a node the fleet
// does not hold is an error, and nothing is scheduled.
func TestInjectFaultsRejectsUnknownNode(t *testing.T) {
	sim := NewSimulation(quickScenario(7))
	err := sim.InjectFaults(ChaosScenario{Faults: []ChaosFault{
		{Kind: ControllerCrash, At: 600, Duration: 600},
		{Kind: ManetPartition, Target: "hbal-099", At: 900, Duration: 600},
	}})
	if want := `fault 1 (manet-partition "hbal-099"): no node named "hbal-099"`; err == nil || err.Error() != want {
		t.Fatalf("InjectFaults = %v, want %s", err, want)
	}
	sim.RunHours(1)
	if crashes := sim.Controller().Crashes; crashes != 0 {
		t.Errorf("a rejected scenario still crashed the controller %d times", crashes)
	}
	if err := sim.InjectFaults(ChaosScenario{Faults: []ChaosFault{
		{Kind: ManetPartition, Target: "hbal-001", At: 4000, Duration: 600},
	}}); err != nil {
		t.Errorf("InjectFaults on a fleet node: %v", err)
	}
}
