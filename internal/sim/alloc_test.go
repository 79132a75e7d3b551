//go:build !race

package sim

import "testing"

// TestWarmScheduleDoesNotAllocate: once the slot table and the heap
// have grown, scheduling a pre-bound fn and then firing or canceling
// it allocates nothing.
func TestWarmScheduleDoesNotAllocate(t *testing.T) {
	e := New(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(float64(i), fn)
	}
	e.Run(100)
	if allocs := testing.AllocsPerRun(100, func() { e.After(1, fn); e.Step() }); allocs != 0 {
		t.Errorf("After+Step allocates %.0f times", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { e.After(1, fn).Cancel() }); allocs != 0 {
		t.Errorf("After+Cancel allocates %.0f times", allocs)
	}
}

// TestEveryCountsAndAllocations: a series is one live event between
// ticks, each tick is one processed event, and re-arming allocates
// nothing.
func TestEveryCountsAndAllocations(t *testing.T) {
	e := New(1)
	tm := e.Every(10, func() bool { return true })
	e.At(25, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	e.Run(35)
	// Ticks at 0, 10, 20, 30 and the one-shot.
	if e.Processed != 5 || e.Pending() != 1 {
		t.Errorf("Processed = %d, Pending = %d; want 5, 1", e.Processed, e.Pending())
	}
	if allocs := testing.AllocsPerRun(100, func() { e.Step() }); allocs != 0 {
		t.Errorf("a tick allocates %.0f times", allocs)
	}
	tm.Cancel()
	if e.Pending() != 0 {
		t.Errorf("Pending after Cancel = %d, want 0", e.Pending())
	}
	if e.Step() {
		t.Error("a canceled series must not fire")
	}
}
