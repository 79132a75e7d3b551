package search

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"minkowski/internal/obs"
)

func hasMetric(ms []obs.MetricSnap, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// TestChaosRepros replays every committed reproducer in
// testdata/repros/. Each file is a shrunk script the chaos search
// found violating an invariant under the pre-fix configuration. The
// test asserts both directions: under the default (fixed)
// configuration the full invariant suite passes — including the
// determinism double-run — and under Options{PreFix: true} the
// recorded violation still reproduces, so the corpus keeps guarding
// the fixes it motivated.
func TestChaosRepros(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "repros", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no reproducers in testdata/repros — the corpus should never be empty")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			s, err := LoadScript(path)
			if err != nil {
				t.Fatal(err)
			}
			if s.Violates == "" {
				t.Fatalf("%s: repro scripts must record the invariant they violate", path)
			}

			fixed, err := Run(s, Options{CheckDeterminism: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(fixed.Violations) != 0 {
				t.Errorf("post-fix run violated %v:\n%+v", violatedNames(fixed), fixed.Violations)
			}

			pre, err := Run(s, Options{PreFix: true})
			if err != nil {
				t.Fatal(err)
			}
			if !pre.Violated(s.Violates) {
				t.Errorf("pre-fix run no longer violates %q (got %v) — the repro has gone stale",
					s.Violates, violatedNames(pre))
			}
			// Every violating replay must come with its black box: the
			// flight recorder captured at the first violation, and the
			// end-of-run obs snapshot carrying chaos.margin.* gauges.
			if pre.Flight == nil || len(pre.Flight.Records) == 0 {
				t.Errorf("pre-fix violating run has no flight-recorder dump")
			}
			if pre.Obs == nil || len(pre.Obs.Metrics) == 0 {
				t.Errorf("pre-fix violating run has no obs snapshot")
			} else if !hasMetric(pre.Obs.Metrics, "chaos.margin."+s.Violates) {
				t.Errorf("obs snapshot missing chaos.margin.%s gauge", s.Violates)
			}
		})
	}
}

// LoadScript reads and validates a repro file.
func LoadScript(path string) (Script, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Script{}, err
	}
	var s Script
	if err := json.Unmarshal(b, &s); err != nil {
		return Script{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return Script{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// violatedNames returns r's distinct violated invariant names in
// first-seen order.
func violatedNames(r Result) []string {
	var out []string
	seen := map[string]bool{}
	for _, v := range r.Violations {
		if !seen[v.Invariant] {
			seen[v.Invariant] = true
			out = append(out, v.Invariant)
		}
	}
	return out
}
