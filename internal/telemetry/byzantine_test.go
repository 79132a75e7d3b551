package telemetry

import (
	"testing"

	"minkowski/internal/geo"
)

// TestPositionGuardReseedClearsQuarantine covers the agent
// re-registration path: a quarantined node that reboots re-seeds its
// envelope from the controller's own model. The reseed must clear the
// quarantine and anchor the envelope at the trusted position — NOT at
// the spoofed fix the node was quarantined for.
func TestPositionGuardReseedClearsQuarantine(t *testing.T) {
	g := NewPositionGuard()
	home := geo.LLADeg(-1.0, 36.8, 19000)
	g.Seed("n1", home, 0)

	spoof := geo.LLADeg(30.0, -100.0, 19000) // another continent
	if g.Observe("n1", spoof, 10) {
		t.Fatal("spoofed report accepted")
	}
	if !g.Quarantined("n1") {
		t.Fatal("node not quarantined after implausible report")
	}

	// Reboot/re-register: the controller seeds from its model position.
	model := geo.LLADeg(-1.01, 36.81, 19050)
	g.Seed("n1", model, 20)
	if g.Quarantined("n1") {
		t.Error("quarantine survived re-registration reseed")
	}
	pos, at, ok := g.LastGood("n1")
	if !ok || at != 20 {
		t.Fatalf("LastGood = (%v, %v, %v), want the reseeded fix at t=20", pos, at, ok)
	}
	if geo.SlantRange(pos, model) > 1 {
		t.Errorf("envelope anchored at %v, want the model position %v", pos, model)
	}

	// Post-reseed behavior: honest reports near the model pass, the old
	// spoof location is still rejected.
	near := geo.LLADeg(-1.02, 36.82, 19050)
	if !g.Observe("n1", near, 30) {
		t.Error("plausible post-reseed report rejected")
	}
	if g.Observe("n1", spoof, 40) {
		t.Error("spoofed report accepted after reseed — envelope inherited the spoofed fix")
	}
	if !g.Quarantined("n1") {
		t.Error("node not re-quarantined after the spoof resumed")
	}
}

// TestPositionGuardSeedDoesNotInheritSpoof is the negative space of the
// reseed: quarantining never advances the reference fix, so even many
// rejected reports leave the envelope where the last trusted fix put
// it (a patient attacker cannot walk it outward).
func TestPositionGuardSeedDoesNotInheritSpoof(t *testing.T) {
	g := NewPositionGuard()
	home := geo.LLADeg(-1.0, 36.8, 19000)
	g.Seed("n1", home, 0)

	spoof := geo.LLADeg(5.0, 40.0, 19000)
	for i := 0; i < 5; i++ {
		if g.Observe("n1", spoof, float64(10+i)) {
			t.Fatalf("spoofed report %d accepted", i)
		}
	}
	pos, at, _ := g.LastGood("n1")
	if at != 0 || geo.SlantRange(pos, home) > 1 {
		t.Errorf("reference fix moved under rejected reports: pos=%v at=%v", pos, at)
	}
	if g.Rejected != 5 {
		t.Errorf("Rejected = %d, want 5", g.Rejected)
	}
}

// TestPositionGuardPatientAttacker is the regression test for the
// envelope-growth hole chaos search found (blind and guided alike): quarantine freezes
// the reference timestamp, so without an absolute cap the
// MaxSpeedMS·Δt radius eventually swallows any fixed spoof offset —
// a ~250 km lie becomes "plausible" after ~52 minutes of patient
// re-sending. With the cap, the spoof stays rejected no matter how
// long the attacker waits, while an honest report after a long silent
// gap (tens of km of real wind drift) is still accepted.
func TestPositionGuardPatientAttacker(t *testing.T) {
	g := NewPositionGuard()
	home := geo.LLADeg(-1.0, 36.8, 19000)
	g.Seed("n1", home, 0)

	spoof := geo.LLADeg(-1.0, 39.05, 19000) // ~250 km east
	if d := geo.SlantRange(home, spoof); d < 200_000 || d > 300_000 {
		t.Fatalf("test geometry off: spoof offset = %.0f m", d)
	}
	// Report the same spoof every 10 s for two hours. Without the cap
	// the envelope passes 250 km at Δt ≈ 3100 s and the lie is adopted.
	for now := 10.0; now <= 7200; now += 10 {
		if g.Observe("n1", spoof, now) {
			t.Fatalf("spoof adopted at t=%.0f — patience defeated the envelope", now)
		}
	}
	if !g.Quarantined("n1") {
		t.Error("attacker not quarantined after two hours of spoofing")
	}

	// Honest recovery after a genuinely long gap still works: ~54 km
	// of real drift over a silent half hour is inside the cap.
	g2 := NewPositionGuard()
	g2.Seed("n2", home, 0)
	drifted := geo.LLADeg(-1.0, 37.29, 19000) // ~54 km east
	if !g2.Observe("n2", drifted, 1800) {
		t.Error("honest post-gap report rejected — cap set below real drift")
	}
}
