package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"minkowski/internal/chaos"
	"minkowski/internal/explain"
)

// atWidths runs fn as a subtest at fan-out widths 1, 2 and 8. The
// evaluator's and the solver's width is GOMAXPROCS and nothing else,
// so the subtest sets it and restores it on cleanup; no test in this
// package calls t.Parallel, so the process-wide setting cannot leak
// into another.
func atWidths(t *testing.T, fn func(t *testing.T)) {
	for _, n := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(n)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			fn(t)
		})
	}
}

// TestEndToEndDeterminism is the regression test the vet suite exists
// to keep honest: a scale-1 scenario (the experiment harness's base
// shape) run twice with the same seed must produce a byte-identical
// dispatch journal and a byte-identical final candidate graph. Any
// wall-clock read, unseeded RNG, or unsorted map sweep anywhere in
// the control loop shows up here as a diff.
// Beyond run-to-run stability, the same scenario is replayed at each
// fan-out width, and every run must be byte-identical to the baseline:
// the number of cores changes throughput, never a byte.
// (TestGoldenJournalDigests pins the same scenario's journal, plans
// and obs snapshot to constants, so a change to the pipeline itself
// shows there.)
func TestEndToEndDeterminism(t *testing.T) {
	run := func(mut func(*Config)) []byte {
		b, _ := runWithObs(mut)
		return b
	}
	diff := func(t *testing.T, label string, a, b []byte) {
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
	diff(t, "repeat run", base, run(nil))
	atWidths(t, func(t *testing.T) { diff(t, "fan-out width", base, run(nil)) })
	// Observability must be a pure observer: turning the tracer and
	// flight recorder off entirely must not move a byte of the journal.
	diff(t, "ObsEnabled=false", base, run(func(cfg *Config) { cfg.ObsEnabled = false }))
}

// TestObsSnapshotDeterminism extends the matrix to the observability
// output itself: with the recorder fully enabled, two same-seed runs
// must produce byte-identical encoded metric snapshots, and the
// snapshot must not change with the fan-out width — the number of
// workers is invisible to the registry.
func TestObsSnapshotDeterminism(t *testing.T) {
	_, base := runWithObs(nil)
	if len(base) == 0 {
		t.Fatal("empty obs snapshot")
	}
	check := func(t *testing.T) {
		if _, got := runWithObs(nil); !bytes.Equal(base, got) {
			t.Errorf("obs snapshot diverges from baseline\nbase:\n%s\ngot:\n%s", base, got)
		}
	}
	t.Run("repeat run", check)
	atWidths(t, check)
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
