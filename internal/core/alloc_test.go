//go:build !race

package core

import (
	"runtime"
	"testing"

	"minkowski/internal/intent"
	"minkowski/internal/radio"
	"minkowski/internal/sim"
)

// TestBackhaulRefreshDoesNotAllocate: releasing a balloon's backhaul
// and re-requesting it, with every other balloon's, builds no strings.
func TestBackhaulRefreshDoesNotAllocate(t *testing.T) {
	c := New(fastConfig(1))
	c.RunHours(0.5)
	reqs := c.NBI.SolverRequests()
	if len(reqs) == 0 {
		t.Fatal("no balloon holds a backhaul request")
	}
	node := reqs[0].Src
	if allocs := testing.AllocsPerRun(100, func() {
		c.NBI.ReleaseBackhaul(node)
		c.manageService()
	}); allocs != 0 {
		t.Errorf("a backhaul refresh allocates %.0f times", allocs)
	}
	if !c.NBI.HasActiveBackhaul(node) {
		t.Error("the refresh did not re-activate the released request")
	}
}

// TestArmRowsDoNotAllocate: an establishment attempt's arm is a reused
// row: taking one, arming its give-up timer (an event bound once) and
// both ends, answering them and freeing it allocate nothing once warm.
func TestArmRowsDoNotAllocate(t *testing.T) {
	c := New(fastConfig(1))
	li := &intent.LinkIntent{NodeA: "hbal-002", NodeB: "hbal-001"}
	cycle := func() {
		arm := c.newArm(li, 1)
		arm.timeout = c.Eng.After(300, arm.onTimeout)
		arm.ends[0].armed, arm.ends[1].armed = true, true
		arm.complete(true)
		arm.timeout.Cancel()
		c.freeArm(arm)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("an arm row's cycle allocates %.0f times, want 0", allocs)
	}
	if arm := c.newArm(li, 1); arm.ends[0].node != "hbal-001" || arm.ends[1].node != "hbal-002" || len(c.freeArms) != 0 {
		t.Errorf("ends %+v, %d free rows; want the one row, its ends in node order", arm.ends, len(c.freeArms))
	}
}

// TestRejournaledLinkDoesNotAllocate: re-recording a link the journal
// already holds (an establish retry, the link-up of a commanded link),
// with the standby stream attached and warm, overwrites both journals'
// entries in place: the row, its ring slot and its arrival event
// allocate nothing.
func TestRejournaledLinkDoesNotAllocate(t *testing.T) {
	eng := sim.New(1)
	r := NewReplicator(eng)
	j := NewJournal()
	r.Bootstrap(j, 1)
	li := &intent.LinkIntent{ID: 1, Link: radio.MakeLinkID("a/x0", "b/x1"), State: intent.LinkCommanded}
	cycle := func() {
		li.Attempts++
		j.RecordLink(li)
		eng.Run(eng.Now() + 1)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("re-journaling a link allocates %.0f times, want 0", allocs)
	}
	if r.InFlight() != 0 || r.Applied != r.Published || j.Digest() != r.StandbyJournal().Digest() {
		t.Errorf("stream did not converge: in flight %d, applied %d of %d", r.InFlight(), r.Applied, r.Published)
	}
}

// TestSolverInputAndReconcileDoNotAllocate: once warm, the solve
// cycle's work around the evaluator and the solver allocates nothing:
// predicting every node's position, rebuilding the solver's input (the
// installed-link map, the backhaul requests), reconciling a plan the
// intent store already holds and walking the route intents to realign.
func TestSolverInputAndReconcileDoNotAllocate(t *testing.T) {
	c := New(fastConfig(1))
	c.RunHours(1)
	c.xcvrs = c.Fleet.AppendTransceivers(c.xcvrs[:0])
	graph := c.Evaluator.CandidateGraph(c.xcvrs, c.Cfg.PredictiveLeadS)
	in := c.solverInput(graph)
	if len(in.Existing) == 0 || len(in.Requests) == 0 {
		t.Fatalf("precondition: %d links up, %d requests open", len(in.Existing), len(in.Requests))
	}
	plan := c.Solver.Solve(in)
	st := intent.NewStore()
	st.Reconcile(plan, 0)
	allocs := testing.AllocsPerRun(100, func() {
		for _, n := range c.Fleet.Nodes() {
			c.predictPosition(n, c.Cfg.PredictiveLeadS)
		}
		c.solverInput(graph)
		if acts := st.Reconcile(plan, 1); !acts.Empty() {
			t.Fatalf("reconciling the plan again acts: %+v", acts)
		}
		c.realignRoutes()
	})
	if allocs != 0 {
		t.Errorf("the solve cycle's glue allocates %.0f times, want 0", allocs)
	}
	if len(c.routes) == 0 {
		t.Error("precondition: realignRoutes walked no route intent")
	}
}

// TestAvailabilitySamplesDoNotAllocate: the Fig. 6-8 samplers read
// every node's layers through a link checker bound once, so a sample
// of an unchanged mesh allocates nothing.
func TestAvailabilitySamplesDoNotAllocate(t *testing.T) {
	c := New(fastConfig(1))
	c.RunHours(1)
	c.sampleTelemetry()
	c.sampleRecovery()
	if allocs := testing.AllocsPerRun(100, func() {
		c.sampleTelemetry()
		c.sampleRecovery()
	}); allocs != 0 {
		t.Errorf("an availability sample allocates %.0f times, want 0", allocs)
	}
}

// The whole-run allocation gates: what the canonical scenario
// allocated per sim-hour (amd64, go1.24) once the solve cycle and the
// samplers reused their buffers, plus 10 %: 6,152 mallocs and 2.16 MB
// over the 21-balloon run's first two hours (11,717 and 3.13 MB
// before), 33,343 mallocs and 16.3 MB over the 56-balloon run's first
// hour (42,051 and 18.3 MB before). Both runs' first hours hold the
// growth of every reused buffer.
const (
	mallocsPerSimHourCeiling   = 6_768
	mallocsPerSimHourCeiling56 = 36_678
	bytesPerSimHourCeiling     = 2_374_000
	bytesPerSimHourCeiling56   = 17_915_000
)

// TestWholeRunMallocsPerSimHour runs the canonical scenario, 21
// balloons for two sim-hours and 56 for one, and fails if its heap
// allocations or allocated bytes per sim-hour exceed their ceilings:
// count gates, so that a per-message, per-sample or per-cycle
// allocation creeping back into a real run shows as a number.
func TestWholeRunMallocsPerSimHour(t *testing.T) {
	for _, leg := range []struct {
		fleet          int
		hours          float64
		ceiling, bytes float64
	}{
		{21, 2, mallocsPerSimHourCeiling, bytesPerSimHourCeiling},
		{56, 1, mallocsPerSimHourCeiling56, bytesPerSimHourCeiling56},
	} {
		cfg := DefaultConfig()
		cfg.Seed = 1
		cfg.FleetSize = leg.fleet
		c := New(cfg)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c.RunHours(leg.hours)
		runtime.ReadMemStats(&after)
		perHour := float64(after.Mallocs-before.Mallocs) / leg.hours
		bytesPerHour := float64(after.TotalAlloc-before.TotalAlloc) / leg.hours
		t.Logf("%d balloons: %.0f mallocs and %.0f bytes per sim-hour (ceilings %.0f, %.0f)", leg.fleet, perHour, bytesPerHour, leg.ceiling, leg.bytes)
		if perHour > leg.ceiling {
			t.Errorf("%d balloons: %.0f mallocs per sim-hour, ceiling %.0f", leg.fleet, perHour, leg.ceiling)
		}
		if bytesPerHour > leg.bytes {
			t.Errorf("%d balloons: %.0f bytes per sim-hour, ceiling %.0f", leg.fleet, bytesPerHour, leg.bytes)
		}
	}
}
