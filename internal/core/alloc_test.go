//go:build !race

package core

import (
	"runtime"
	"testing"
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

// mallocsPerSimHourCeiling is the whole-run allocation gate: the count
// the canonical run measured when control-plane traffic became table
// rows (29,790 per sim-hour over its first two hours on amd64, go1.24),
// plus 10 %. The same two hours made 67,533 before.
const mallocsPerSimHourCeiling = 32_769

// TestWholeRunMallocsPerSimHour runs the canonical 21-balloon scenario
// for two sim-hours and fails if its heap allocations per sim-hour
// exceed the ceiling: a count gate, so that a per-message or per-sample
// allocation creeping back into a real run shows as a number.
func TestWholeRunMallocsPerSimHour(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.FleetSize = 21
	c := New(cfg)
	const hours = 2
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c.RunHours(hours)
	runtime.ReadMemStats(&after)
	perHour := float64(after.Mallocs-before.Mallocs) / hours
	t.Logf("%.0f mallocs per sim-hour (ceiling %d)", perHour, mallocsPerSimHourCeiling)
	if perHour > mallocsPerSimHourCeiling {
		t.Errorf("%.0f mallocs per sim-hour, ceiling %d", perHour, mallocsPerSimHourCeiling)
	}
}
