package core

import (
	"bytes"
	"fmt"
	"testing"

	"minkowski/internal/chaos"
	"minkowski/internal/explain"
)

// TestEndToEndDeterminism is the regression test the vet suite exists
// to keep honest: a scale-1 scenario (the experiment harness's base
// shape) run twice with the same seed must produce a byte-identical
// dispatch journal and a byte-identical final candidate graph. Any
// wall-clock read, unseeded RNG, or unsorted map sweep anywhere in
// the control loop shows up here as a diff.
// Beyond run-to-run stability, the same scenario is replayed across
// SolveWorkers settings, and every variant must be byte-identical to
// the baseline: worker count is a throughput knob, never a semantic
// one. (TestGoldenJournalDigests pins the same scenario's journal and
// plans to constants, so a change to the pipeline itself shows there.)
func TestEndToEndDeterminism(t *testing.T) {
	run := func(mut func(*Config)) []byte {
		b, _ := runWithObs(mut)
		return b
	}
	diff := func(label string, a, b []byte) {
		t.Helper()
		if bytes.Equal(a, b) {
			return
		}
		la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		n := len(la)
		if len(lb) < n {
			n = len(lb)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("%s diverges at line %d:\n  base:    %s\n  variant: %s", label, i+1, la[i], lb[i])
			}
		}
		t.Fatalf("%s diverges in length: %d vs %d lines", label, len(la), len(lb))
	}

	base := run(nil)
	if len(base) == 0 {
		t.Fatal("empty journal + graph — scenario produced no activity")
	}
	diff("repeat run", base, run(nil))
	diff("SolveWorkers=2", base, run(func(cfg *Config) { cfg.SolveWorkers = 2 }))
	diff("SolveWorkers=8", base, run(func(cfg *Config) { cfg.SolveWorkers = 8 }))
	// Observability must be a pure observer: turning the tracer and
	// flight recorder off entirely must not move a byte of the journal.
	diff("ObsEnabled=false", base, run(func(cfg *Config) { cfg.ObsEnabled = false }))
}

// TestObsSnapshotDeterminism extends the matrix to the observability
// output itself: with the recorder fully enabled, two same-seed runs
// must produce byte-identical encoded metric snapshots, and the
// snapshot must not change with solve-pipeline configuration — worker
// count is invisible to the registry (shard layout appears only in
// span trees, and only at an explicitly pinned width).
func TestObsSnapshotDeterminism(t *testing.T) {
	snap := func(mut func(*Config)) []byte {
		_, s := runWithObs(mut)
		return s
	}
	base := snap(nil)
	if len(base) == 0 {
		t.Fatal("empty obs snapshot")
	}
	for _, tc := range []struct {
		label string
		mut   func(*Config)
	}{
		{"repeat run", nil},
		{"SolveWorkers=2", func(cfg *Config) { cfg.SolveWorkers = 2 }},
		{"SolveWorkers=8", func(cfg *Config) { cfg.SolveWorkers = 8 }},
	} {
		if got := snap(tc.mut); !bytes.Equal(base, got) {
			t.Errorf("%s: obs snapshot diverges from baseline\nbase:\n%s\ngot:\n%s", tc.label, base, got)
		}
	}
}

// detConfig is the determinism scenario at the given fleet size (11,
// 16, 21 = experiments.baseScenario at scales 1, 2, 3).
func detConfig(fleet int) Config {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.FleetSize = fleet
	cfg.SolveIntervalS = 120
	cfg.AgentConnCheckS = 10
	return cfg
}

// runWithObs runs the scale-1 determinism scenario and returns the
// journal+graph bytes and the encoded obs snapshot.
func runWithObs(mut func(*Config)) (journal, obsSnap []byte) {
	cfg := detConfig(11) // experiments.baseScenario at scale 1
	if mut != nil {
		mut(&cfg)
	}
	c := New(cfg)
	c.RunHours(2)

	var buf bytes.Buffer
	for _, li := range c.Journal.Links() {
		fmt.Fprintf(&buf, "link %+v\n", *li)
	}
	for _, ri := range c.Journal.Routes() {
		fmt.Fprintf(&buf, "route %+v\n", *ri)
	}
	// The final candidate graph, field-wise (Reports hold
	// transceiver pointers whose addresses differ across runs).
	graph := c.Evaluator.CandidateGraph(c.Fleet.Transceivers(), c.Cfg.PredictiveLeadS)
	for _, r := range graph {
		fmt.Fprintf(&buf, "cand %v lead=%v budget=%+v class=%v dist=%v atmos=%v b2g=%v\n",
			r.ID, r.Lead, r.Budget, r.Class, r.DistM, r.AtmosDB, r.B2G)
	}
	enc, err := c.ObsSnapshot().Encode()
	if err != nil {
		panic(err)
	}
	return buf.Bytes(), enc
}

// TestEndToEndDeterminismScale3Chaos extends the determinism
// regression to the largest fleet under an adversarial fault script:
// a controller crash, an asymmetric (one-direction) partition, and a
// byzantine telemetry window all firing in one run. Same seed + same
// script twice must still produce a byte-identical dispatch journal
// and candidate graph — fault handling (quarantine, deaf-edge
// rerouting, crash reconciliation) must not introduce any
// order-dependent or wall-clock state.
func TestEndToEndDeterminismScale3Chaos(t *testing.T) {
	script := chaos.Scenario{
		Name: "determinism-scale3",
		Faults: []chaos.Fault{
			{Kind: chaos.ControllerCrash, At: 1200, Duration: 300},
			{Kind: chaos.PartialPartition, Target: "hbal-004>gs-nairobi", At: 2400, Duration: 600},
			{Kind: chaos.ByzantineTelemetry, Target: "hbal-013", At: 3000, Duration: 900},
		},
	}
	run := func() []byte {
		cfg := DefaultConfig()
		cfg.Seed = 11
		cfg.FleetSize = 21 // experiments.baseScenario at scale 3
		cfg.SolveIntervalS = 120
		cfg.AgentConnCheckS = 10
		c := New(cfg)
		c.InstallChaos(script)
		c.RunHours(2)

		var buf bytes.Buffer
		for _, li := range c.Journal.Links() {
			fmt.Fprintf(&buf, "link %+v\n", *li)
		}
		for _, ri := range c.Journal.Routes() {
			fmt.Fprintf(&buf, "route %+v\n", *ri)
		}
		graph := c.Evaluator.CandidateGraph(c.Fleet.Transceivers(), c.Cfg.PredictiveLeadS)
		for _, r := range graph {
			fmt.Fprintf(&buf, "cand %v lead=%v budget=%+v class=%v dist=%v atmos=%v b2g=%v\n",
				r.ID, r.Lead, r.Budget, r.Class, r.DistM, r.AtmosDB, r.B2G)
		}
		fmt.Fprintf(&buf, "digest %x crashes %d rejected %d\n",
			c.TelemetryDigest(), c.Crashes, c.PosGuard.Rejected)
		return buf.Bytes()
	}
	a := run()
	b := run()
	if !bytes.Equal(a, b) {
		la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		n := len(la)
		if len(lb) < n {
			n = len(lb)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("runs diverge at line %d:\n  run1: %s\n  run2: %s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("runs diverge in length: %d vs %d lines", len(la), len(lb))
	}
	if len(a) == 0 {
		t.Fatal("empty journal + graph — scenario produced no activity")
	}
}

// TestNightfallPowerDownDeterminism covers the step the other
// determinism runs never reach: dusk, when the diurnal power cycle
// switches several payloads off inside one fleet step. The order in
// which stepFleet fails their links decides what mesh each OnDown
// callback (and the in-band responses it sends) sees, so it must not
// follow map order. Four same-seed runs through the night must agree
// on one TelemetryDigest and one change-log.
func TestNightfallPowerDownDeterminism(t *testing.T) {
	run := func() (uint64, string, int) {
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.FleetSize = 11 // experiments.baseScenario at scale 1
		cfg.SolveIntervalS = 120
		cfg.AgentConnCheckS = 10
		cfg.StartTODHours = 17
		c := New(cfg)
		c.RunHours(4)
		var log bytes.Buffer
		sameStep := 0
		lastAt, linksUp := -1.0, false
		for _, e := range c.Log.Query(explain.Filter{}) {
			fmt.Fprintln(&log, e)
			if e.Kind == explain.EvLinkState {
				linksUp = true
			}
			if e.Kind == explain.EvNodeLeave && e.Detail == "payload powered down" {
				if e.At == lastAt && linksUp {
					sameStep++
				}
				lastAt = e.At
			}
		}
		return c.TelemetryDigest(), log.String(), sameStep
	}
	digest, log, sameStep := run()
	if sameStep < 2 {
		t.Fatalf("scenario has %d same-step power-downs after links formed; need at least 2", sameStep)
	}
	for i := 2; i <= 4; i++ {
		d, l, _ := run()
		if d != digest {
			t.Errorf("run %d: TelemetryDigest %x, run 1 had %x", i, d, digest)
		}
		if l != log {
			t.Errorf("run %d: change-log differs from run 1", i)
		}
	}
}
