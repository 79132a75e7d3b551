package chaos

import (
	"testing"

	"minkowski/internal/sim"
)

func TestInjectorFiresStartAndEnd(t *testing.T) {
	eng := sim.New(1)
	var log []string
	in := NewInjector(eng, Hooks{
		SatcomOutage: func(p string, down bool) {
			if down {
				log = append(log, "sat-down-"+p)
			} else {
				log = append(log, "sat-up-"+p)
			}
		},
		SolverOutage: func(down bool) {
			if down {
				log = append(log, "solver-down")
			} else {
				log = append(log, "solver-up")
			}
		},
	})
	in.Schedule(Scenario{Name: "t", Faults: []Fault{
		{Kind: SolverOutage, At: 50, Duration: 100},
		{Kind: SatcomOutage, Target: "leo", At: 10, Duration: 30},
	}})
	eng.Run(1000)
	want := []string{"sat-down-leo", "sat-up-leo", "solver-down", "solver-up"}
	if len(log) != len(want) {
		t.Fatalf("hook log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("hook log = %v, want %v", log, want)
		}
	}
	if len(in.Events) != 4 {
		t.Fatalf("event log has %d entries, want 4", len(in.Events))
	}
	if in.Events[0].Phase != "start" || in.Events[0].At != 10 {
		t.Errorf("first event = %+v, want satcom start at t=10", in.Events[0])
	}
	if in.Events[1].Phase != "end" || in.Events[1].At != 40 {
		t.Errorf("second event = %+v, want satcom end at t=40", in.Events[1])
	}
}

func TestNilHooksAreInertButLogged(t *testing.T) {
	eng := sim.New(1)
	in := NewInjector(eng, Hooks{})
	in.Schedule(Standard())
	eng.Run(12 * 3600)
	// Every fault starts, and every windowed fault ends.
	starts, ends := 0, 0
	for _, e := range in.Events {
		switch e.Phase {
		case "start":
			starts++
		case "end":
			ends++
		}
	}
	if starts != len(Standard().Faults) {
		t.Errorf("starts = %d, want %d", starts, len(Standard().Faults))
	}
	if ends != len(Standard().Faults) { // standard script has no impulses
		t.Errorf("ends = %d, want %d", ends, len(Standard().Faults))
	}
}

func TestAgentRebootIsImpulse(t *testing.T) {
	eng := sim.New(1)
	calls := 0
	in := NewInjector(eng, Hooks{AgentReboot: func(string) { calls++ }})
	in.Schedule(Scenario{Faults: []Fault{
		{Kind: AgentReboot, Target: "hbal-001", At: 5, Duration: 60},
	}})
	eng.Run(100)
	if calls != 1 {
		t.Errorf("reboot fired %d times, want exactly 1 (impulse)", calls)
	}
	if len(in.Events) != 1 {
		t.Errorf("event log = %d entries, want 1 (no end phase)", len(in.Events))
	}
}

func TestPartitionTargetsSplit(t *testing.T) {
	eng := sim.New(1)
	var isolated []string
	in := NewInjector(eng, Hooks{Partition: func(n string, iso bool) {
		if iso {
			isolated = append(isolated, n)
		}
	}})
	in.Schedule(Scenario{Faults: []Fault{
		{Kind: ManetPartition, Target: "hbal-001, hbal-002,hbal-003", At: 1, Duration: 10},
	}})
	eng.Run(5)
	if len(isolated) != 3 {
		t.Fatalf("isolated = %v, want 3 nodes", isolated)
	}
	if isolated[0] != "hbal-001" || isolated[2] != "hbal-003" {
		t.Errorf("isolated = %v", isolated)
	}
}

func TestFaultStrings(t *testing.T) {
	for k := ControllerCrash; k <= SolverOutage; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", int(k))
		}
	}
}

// TestCheckNodes: every node-naming fault kind is checked against the
// fleet, and the error names the fault's index, kind and target.
func TestCheckNodes(t *testing.T) {
	fleet := map[string]bool{"gs-a": true, "hbal-001": true, "hbal-002": true}
	known := func(n string) bool { return fleet[n] }
	valid := Scenario{Faults: []Fault{
		{Kind: ManetPartition, Target: "hbal-001, hbal-002"},
		{Kind: PartialPartition, Target: "hbal-001>gs-a"},
		{Kind: AgentReboot, Target: "hbal-002"},
		{Kind: ByzantineTelemetry, Target: "hbal-001"},
		{Kind: GatewayLoss, Target: "gs-a"},
		{Kind: SatcomOutage, Target: "leo"},
		{Kind: ReplicaPartition, Target: "ctl-a"},
	}}
	if err := valid.CheckNodes(known); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	for _, tc := range []struct {
		f    Fault
		want string
	}{
		{Fault{Kind: ManetPartition, Target: "hbal-001,hbal-099"}, `fault 1 (manet-partition "hbal-001,hbal-099"): no node named "hbal-099"`},
		{Fault{Kind: PartialPartition, Target: "hbal-001>gs-z"}, `fault 1 (partial-partition "hbal-001>gs-z"): no node named "gs-z"`},
		{Fault{Kind: PartialPartition, Target: "hbal-001"}, `fault 1 (partial-partition "hbal-001"): target is not from>to`},
		{Fault{Kind: AgentReboot, Target: "hbal-003"}, `fault 1 (agent-reboot "hbal-003"): no node named "hbal-003"`},
		{Fault{Kind: ByzantineTelemetry, Target: ""}, `fault 1 (byzantine-telemetry ""): no node named ""`},
		{Fault{Kind: GatewayLoss, Target: "gs-b"}, `fault 1 (gateway-loss "gs-b"): no node named "gs-b"`},
	} {
		s := Scenario{Faults: []Fault{{Kind: SolverOutage}, tc.f}}
		err := s.CheckNodes(known)
		if err == nil || err.Error() != tc.want {
			t.Errorf("CheckNodes(%v %q) = %v, want %s", tc.f.Kind, tc.f.Target, err, tc.want)
		}
	}
}
