package dataplane

import "testing"

// TestDeliveryMeterClock drives one route through the full outage
// state machine: delivery resets the clock, unreachability resets it,
// uncontrollable drops freeze it, and controllable drops accumulate
// until the grace window tips them into LostBeyondGrace.
func TestDeliveryMeterClock(t *testing.T) {
	m := NewDeliveryMeter(120)
	rec := func(delivered, reachable, controllable bool) {
		m.Record("r", 60, delivered, reachable, controllable)
	}

	rec(true, true, true) // delivered: clock stays zero
	rec(false, true, true)
	rec(false, true, true) // 120 s accumulated — at the bound, in grace
	if m.LostBeyondGrace != 0 || m.DroppedInGrace != 2 {
		t.Fatalf("at grace bound: lost=%d inGrace=%d, want 0/2", m.LostBeyondGrace, m.DroppedInGrace)
	}
	rec(false, true, false) // excused: frozen, not forgiven
	if m.DroppedUncontrollable != 1 {
		t.Fatalf("DroppedUncontrollable = %d, want 1", m.DroppedUncontrollable)
	}
	rec(false, true, true) // 180 s — past grace
	if m.LostBeyondGrace != 1 {
		t.Fatalf("LostBeyondGrace = %d, want 1 after exceeding grace", m.LostBeyondGrace)
	}
	rec(true, true, true) // delivery resets the clock
	rec(false, true, true)
	if m.LostBeyondGrace != 1 || m.DroppedInGrace != 3 {
		t.Fatalf("post-reset: lost=%d inGrace=%d, want 1/3", m.LostBeyondGrace, m.DroppedInGrace)
	}
	rec(false, false, true) // unreachable resets too
	rec(false, true, true)
	if m.LostBeyondGrace != 1 {
		t.Fatalf("unreachable did not reset the clock: lost=%d", m.LostBeyondGrace)
	}
	if m.MaxOutageS != 180 {
		t.Errorf("MaxOutageS = %v, want 180", m.MaxOutageS)
	}
	if !m.Conserved() {
		t.Errorf("counters do not conserve: inj=%d ok=%d drop=%d (%d/%d/%d/%d)",
			m.Injected, m.Delivered, m.Dropped,
			m.DroppedUnreachable, m.DroppedUncontrollable, m.DroppedInGrace, m.LostBeyondGrace)
	}
}

// TestDeliveryMeterClear checks that releasing a route forgets its
// outage clock — a later route reusing the ID starts fresh.
func TestDeliveryMeterClear(t *testing.T) {
	m := NewDeliveryMeter(100)
	m.Record("r", 60, false, true, true)
	m.Clear("r")
	m.Record("r", 60, false, true, true)
	if m.LostBeyondGrace != 0 {
		t.Fatalf("LostBeyondGrace = %d, want 0 — Clear did not reset the clock", m.LostBeyondGrace)
	}
	if m.MaxOutageS != 60 {
		t.Errorf("MaxOutageS = %v, want 60 after Clear", m.MaxOutageS)
	}
}

// Conserved reports whether the counters add up — injected probes are
// exactly partitioned into delivered plus the four drop classes.
func (m *DeliveryMeter) Conserved() bool {
	return m.Injected == m.Delivered+m.Dropped &&
		m.Dropped == m.DroppedUnreachable+m.DroppedUncontrollable+m.DroppedInGrace+m.LostBeyondGrace
}
