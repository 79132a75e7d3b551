package search

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"minkowski/internal/chaos"
)

// TestGenerateDeterministic: the grammar is a pure function of the
// rng stream — same seed, same script.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := GenerateKinds(rand.New(rand.NewSource(seed)), seed, 2, 3, chaos.Kinds())
		b := GenerateKinds(rand.New(rand.NewSource(seed)), seed, 2, 3, chaos.Kinds())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generated scripts differ:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestGenerateWellFormed: every generated script validates, respects
// the grammar bounds, and both new fault kinds are reachable across a
// modest seed sweep.
func TestGenerateWellFormed(t *testing.T) {
	kindsSeen := map[string]bool{}
	for seed := int64(1); seed <= 200; seed++ {
		scale := 1 + int(seed%3)
		s := GenerateKinds(rand.New(rand.NewSource(seed)), seed, scale, 3, chaos.Kinds())
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: generated script invalid: %v", seed, err)
		}
		if len(s.Faults) < 2 {
			t.Fatalf("seed %d: only %d faults", seed, len(s.Faults))
		}
		perKind := map[string]int{}
		for _, f := range s.Faults {
			kindsSeen[f.Kind] = true
			perKind[f.Kind]++
			if perKind[f.Kind] > genMaxPerKind {
				t.Fatalf("seed %d: %d faults of kind %s (max %d)", seed, perKind[f.Kind], f.Kind, genMaxPerKind)
			}
			if f.At < genMinAtS {
				t.Fatalf("seed %d: fault at t=%.0fs before bootstrap floor %ds", seed, f.At, genMinAtS)
			}
			if f.Kind == "byzantine-telemetry" && f.Duration <= 0 {
				t.Fatalf("seed %d: byzantine fault with no end window would never lift", seed)
			}
		}
	}
	for _, want := range []string{"partial-partition", "byzantine-telemetry"} {
		if !kindsSeen[want] {
			t.Errorf("kind %s never generated across 200 seeds", want)
		}
	}
}

// TestMixSeed: trial seeds are non-negative and pairwise distinct for
// practical campaign sizes.
func TestMixSeed(t *testing.T) {
	seen := map[int64]bool{}
	for _, master := range []int64{0, 1, 42, 1 << 40} {
		for trial := 0; trial < 200; trial++ {
			s := mixSeed(master, trial)
			if s < 0 {
				t.Fatalf("mixSeed(%d, %d) = %d negative", master, trial, s)
			}
			if seen[s] {
				t.Fatalf("mixSeed collision at master=%d trial=%d", master, trial)
			}
			seen[s] = true
		}
	}
}

// TestShrinkMinimizes: given a violating script padded with an
// irrelevant fault, the shrinker drops the noise and keeps the
// violation. Uses the committed byzantine repro as the kernel.
func TestShrinkMinimizes(t *testing.T) {
	s := Script{
		Name: "shrink-test", Seed: 4028864712777624925, Scale: 1, Hours: 1.5,
		Faults: []ScriptFault{
			{Kind: "gateway-loss", Target: "gs-nairobi", At: 1800, Duration: 600},
			{Kind: "byzantine-telemetry", Target: "hbal-011", At: 900, Duration: 120},
		},
	}
	opts := Options{PreFix: true}
	shrunk, runs, err := Shrink(s, InvPositionSanity, opts, DefaultShrinkBudget)
	if err != nil {
		t.Fatal(err)
	}
	if runs <= 0 || runs > DefaultShrinkBudget {
		t.Fatalf("shrink spent %d runs (budget %d)", runs, DefaultShrinkBudget)
	}
	if shrunk.Violates != InvPositionSanity {
		t.Fatalf("shrunk script records Violates=%q", shrunk.Violates)
	}
	if len(shrunk.Faults) != 1 || shrunk.Faults[0].Kind != "byzantine-telemetry" {
		t.Fatalf("shrinker kept irrelevant faults: %+v", shrunk.Faults)
	}
	if shrunk.Hours > s.Hours {
		t.Fatalf("shrunk hours grew: %.1f > %.1f", shrunk.Hours, s.Hours)
	}
	res, err := Run(shrunk, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated(InvPositionSanity) {
		t.Fatalf("shrunk script no longer violates %s: %v", InvPositionSanity, violatedNames(res))
	}
}

// TestSearchDeterministic: identical SearchConfig yields a
// byte-identical report, and the worker count does not influence
// results.
func TestSearchDeterministic(t *testing.T) {
	base := SearchConfig{Seed: 1, Trials: 2, Scale: 1, Hours: 1}
	a := Search(base)

	again := base
	again.Workers = 1
	b := Search(again)

	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("reports differ across identical campaigns:\n%s\n%s", ja, jb)
	}
	for _, r := range a.Results {
		if r.Error != "" {
			t.Errorf("trial %d errored: %s", r.Trial, r.Error)
		}
	}
}

// TestPhantomTargetFailsBeforeRun: a script naming a node the fleet
// does not hold (hbal-099 at scale 1) is an error before anything
// runs, not a partition that silently isolates nothing.
func TestPhantomTargetFailsBeforeRun(t *testing.T) {
	s := Script{
		Name: "phantom", Seed: 1, Scale: 1, Hours: 1,
		Faults: []ScriptFault{
			{Kind: "solver-outage", At: 600, Duration: 300},
			{Kind: "manet-partition", Target: "hbal-099", At: 900, Duration: 600},
		},
	}
	_, err := Run(s, Options{})
	if want := `fault 1 (manet-partition "hbal-099"): no node named "hbal-099"`; err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want %s", err, want)
	}
}

// TestShrinkKeepsScaleItsTargetNeeds: lowering the scale would drop the
// balloon the script's one fault names (hbal-015 exists at scale 2,
// not at 1), so that candidate does not reproduce and the shrink ends
// at scale 2 rather than failing.
func TestShrinkKeepsScaleItsTargetNeeds(t *testing.T) {
	s := Script{
		Name: "scale-bound", Seed: 4028864712777624925, Scale: 2, Hours: 1,
		Faults: []ScriptFault{{Kind: "byzantine-telemetry", Target: "hbal-015", At: 1800, Duration: 120}},
	}
	shrunk, _, err := Shrink(s, InvPositionSanity, Options{PreFix: true}, DefaultShrinkBudget)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Scale != 2 {
		t.Errorf("shrunk to scale %d, where the fleet has no hbal-015", shrunk.Scale)
	}
}

// TestSimultaneousViolationsRecordInOrder: eleven byzantine balloons
// breach position sanity within the same probe ticks; every run must
// record the violations in one order, so the first violation and the
// report built on it do not vary between runs.
func TestSimultaneousViolationsRecordInOrder(t *testing.T) {
	s := Script{Name: "simultaneous", Seed: 4028864712777624925, Scale: 1, Hours: 1.5}
	for i := 1; i <= 11; i++ {
		s.Faults = append(s.Faults, ScriptFault{Kind: "byzantine-telemetry", Target: fmt.Sprintf("hbal-%03d", i), At: 900, Duration: 120})
	}
	var first []Violation
	for run := 0; run < 4; run++ {
		res, err := Run(s, Options{PreFix: true})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = res.Violations
			perTick, most := map[float64]int{}, 0
			for _, v := range first {
				perTick[v.At]++
				most = max(most, perTick[v.At])
			}
			if most < 2 {
				t.Fatalf("precondition: %d violations, at most %d in one tick; want several", len(first), most)
			}
			continue
		}
		if !slices.Equal(res.Violations, first) {
			t.Fatalf("run %d recorded %v, run 0 %v", run, res.Violations, first)
		}
	}
}
