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
	reqs := c.NBI.ActiveRequests()
	if len(reqs) == 0 {
		t.Fatal("no balloon holds a backhaul request")
	}
	node := reqs[0].Node
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

// The whole-run allocation gates: mallocs per sim-hour the canonical
// scenario measured (amd64, go1.24) once journal writes became value
// rows and data-plane routes values, plus 10 %: 11,717 over the
// 21-balloon run's first two hours (12,073 before) and 42,048 over the
// 56-balloon run's first hour (44,344 before).
const (
	mallocsPerSimHourCeiling   = 12_889
	mallocsPerSimHourCeiling56 = 46_253
)

// TestWholeRunMallocsPerSimHour runs the canonical scenario, 21
// balloons for two sim-hours and 56 for one, and fails if its heap
// allocations per sim-hour exceed the ceiling: a count gate, so that a
// per-message or per-sample allocation creeping back into a real run
// shows as a number.
func TestWholeRunMallocsPerSimHour(t *testing.T) {
	for _, leg := range []struct {
		fleet   int
		hours   float64
		ceiling float64
	}{
		{21, 2, mallocsPerSimHourCeiling},
		{56, 1, mallocsPerSimHourCeiling56},
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
		t.Logf("%d balloons: %.0f mallocs per sim-hour (ceiling %.0f)", leg.fleet, perHour, leg.ceiling)
		if perHour > leg.ceiling {
			t.Errorf("%d balloons: %.0f mallocs per sim-hour, ceiling %.0f", leg.fleet, perHour, leg.ceiling)
		}
	}
}
