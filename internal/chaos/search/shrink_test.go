package search

import (
	"math/rand"
	"testing"

	"minkowski/internal/chaos"
)

// TestShrinkConvergesOnMutant pads a known minimal reproducer with
// two extra grammar-drawn faults, and delta-debug must strip the
// padding back off while preserving the violation.
func TestShrinkConvergesOnMutant(t *testing.T) {
	base, err := LoadScript("testdata/repros/split-brain-stale-epoch.json")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	span := base.Hours*3600 - genMinAtS - genTailS
	mutant := base.Clone()
	for _, k := range []chaos.Kind{chaos.AgentReboot, chaos.SatcomOutage} {
		mutant.Faults = append(mutant.Faults, genFault(rng, k, base.FleetSize(), span))
	}
	if len(mutant.Faults) != len(base.Faults)+2 {
		t.Fatalf("mutant has %d faults, want %d", len(mutant.Faults), len(base.Faults)+2)
	}
	shrunk, runs, err := Shrink(mutant, base.Violates, Options{PreFix: true}, DefaultShrinkBudget)
	if err != nil {
		t.Fatalf("Shrink: %v (after %d runs)", err, runs)
	}
	if len(shrunk.Faults) > len(base.Faults) {
		t.Errorf("shrunk mutant kept %d faults, want <= %d (padding not removed)",
			len(shrunk.Faults), len(base.Faults))
	}
	if shrunk.Violates != base.Violates {
		t.Errorf("shrunk.Violates = %q, want %q", shrunk.Violates, base.Violates)
	}
}
