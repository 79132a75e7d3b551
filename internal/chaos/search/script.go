// Package search is the property-based chaos harness: it generates
// random fault scripts from a seeded grammar, runs them against a
// full controller simulation, checks a machine-checkable invariant
// suite over the trace, and delta-debug-shrinks any violating script
// to a locally minimal reproducer. Shrunk reproducers are committed
// under testdata/repros/ and replayed as regression tests.
//
// Everything here is deterministic: a (seed, scale, hours) triple
// fully determines the generated script, the simulation outcome, and
// the shrunk reproducer, so `chaosearch -seed S` is replayable and
// parallel trials are order-independent.
package search

import (
	"encoding/json"
	"fmt"
	"os"

	"minkowski/internal/chaos"
)

// ScriptFault is one fault in the serializable script form. Kind is
// the chaos.Kind string form so repro files are self-describing.
type ScriptFault struct {
	Kind     string  `json:"kind"`
	Target   string  `json:"target,omitempty"`
	At       float64 `json:"at"`
	Duration float64 `json:"duration,omitempty"`
}

// Script is a replayable chaos trial: the simulation parameters plus
// the fault schedule. It round-trips through JSON for the repro
// corpus.
type Script struct {
	Name  string `json:"name"`
	Seed  int64  `json:"seed"`
	Scale int    `json:"scale"`
	// Hours is the simulated duration.
	Hours float64 `json:"hours"`
	// Violates names the invariant this script violated when it was
	// found (pre-fix, or on core.NewPreFix); repro tests assert
	// the violation reappears under Options{PreFix: true} and is gone
	// under the default (fixed) configuration.
	Violates string        `json:"violates,omitempty"`
	Notes    string        `json:"notes,omitempty"`
	Faults   []ScriptFault `json:"faults"`
}

// FleetSize maps the scale knob to the experiment fleet sizing
// (matches internal/experiments: 11 balloons at scale 1, 21 at 3).
func (s Script) FleetSize() int { return 6 + 5*s.Scale }

// Scenario converts the script to the injector's form.
func (s Script) Scenario() (chaos.Scenario, error) {
	sc := chaos.Scenario{Name: s.Name}
	for i, f := range s.Faults {
		k, err := chaos.ParseKind(f.Kind)
		if err != nil {
			return chaos.Scenario{}, fmt.Errorf("fault %d: %w", i, err)
		}
		if f.At < 0 || f.Duration < 0 {
			return chaos.Scenario{}, fmt.Errorf("fault %d: negative time", i)
		}
		sc.Faults = append(sc.Faults, chaos.Fault{
			Kind: k, Target: f.Target, At: f.At, Duration: f.Duration,
		})
	}
	return sc, nil
}

// Validate checks the script is well-formed without running it.
func (s Script) Validate() error {
	if s.Scale < 1 || s.Scale > 3 {
		return fmt.Errorf("scale %d out of range [1,3]", s.Scale)
	}
	if s.Hours <= 0 {
		return fmt.Errorf("hours %.2f must be positive", s.Hours)
	}
	_, err := s.Scenario()
	return err
}

// Clone deep-copies the script (shrinking mutates candidates freely).
func (s Script) Clone() Script {
	c := s
	c.Faults = append([]ScriptFault(nil), s.Faults...)
	return c
}

// Save writes the script as indented JSON.
func (s Script) Save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadScript reads a script written by Save.
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
