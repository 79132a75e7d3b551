package core

import (
	"fmt"
	"testing"

	"minkowski/internal/chaos"
	"minkowski/internal/telemetry"
)

// TestCrashRestartReconciliation is the PR's acceptance scenario: a
// controller crash at T+2h for 10 minutes with one satcom provider
// out for an hour. The network must degrade gracefully and recover,
// and the restarted controller must reconcile from its journal with
// ZERO duplicate intent enactments (no re-establishing links that are
// already up).
func TestCrashRestartReconciliation(t *testing.T) {
	cfg := fastConfig(7)
	c := New(cfg)
	inj := mustInstallChaos(c, chaos.Scenario{
		Name: "acceptance",
		Faults: []chaos.Fault{
			{Kind: chaos.ControllerCrash, At: 2 * 3600, Duration: 600},
			{Kind: chaos.SatcomOutage, Target: "leo", At: 2 * 3600, Duration: 3600},
		},
	})
	c.RunHours(5)

	if c.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", c.Crashes)
	}
	if c.Down() {
		t.Fatal("controller still down after restart window")
	}
	if got := len(inj.Events); got != 4 {
		t.Fatalf("injector events = %d, want 4 (2 starts + 2 ends)", got)
	}

	// The acceptance criterion: reconciliation, not re-actuation.
	if c.DuplicateEstablishes != 0 {
		t.Errorf("DuplicateEstablishes = %d, want 0 — restart re-actuated journaled work",
			c.DuplicateEstablishes)
	}
	if c.Readopted == 0 {
		t.Error("Readopted = 0: restart adopted nothing from the journal")
	}

	// Recovery: the network must be functional again well after the
	// faults clear — links up, solves running, routes programmed.
	if len(c.Fabric.UpLinks()) == 0 {
		t.Error("no links up after recovery")
	}
	programmed := 0
	for _, r := range c.Data.Routes() {
		if c.Data.FullyProgrammed(r.ID) {
			programmed++
		}
	}
	if programmed == 0 {
		t.Error("no route fully programmed after recovery")
	}
	// Solve cycles paused during the 10-minute crash but resumed: over
	// 5 h at 60 s cadence we expect ~290 of 300 (the crash eats ~10).
	if c.SolveRuns < 250 {
		t.Errorf("SolveRuns = %d, want ~290 (loops must resume after restart)", c.SolveRuns)
	}
}

// TestRestartExpiresStaleIntents verifies the other half of
// reconciliation: intents journaled mid-flight (commanded/installing)
// whose links never came up are expired on restart — not adopted into
// a state the actuation layer can no longer drive.
func TestRestartExpiresStaleIntents(t *testing.T) {
	cfg := fastConfig(11)
	c := New(cfg)
	mustInstallChaos(c, chaos.Scenario{
		Faults: []chaos.Fault{
			// Crash mid-operation; 2 minutes is long enough for any
			// in-flight establishment to fail or succeed physically.
			{Kind: chaos.ControllerCrash, At: 90 * 60, Duration: 120},
		},
	})
	c.RunHours(3)
	if c.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", c.Crashes)
	}
	// The journal always holds some mid-flight state at crash time in
	// a churning network; adopted + expired must cover it all and the
	// store must only contain non-terminal intents afterwards.
	for _, li := range c.Intents.ActiveLinks() {
		if li.State.Terminal() {
			t.Errorf("terminal intent %v in active store", li)
		}
	}
	if c.Readopted+c.ExpiredOnRestart == 0 {
		t.Error("restart neither adopted nor expired anything — journal was empty at crash")
	}
}

// TestDeterminismUnderFaults runs the same seeded chaos scenario twice
// and requires bit-identical telemetry digests — fault injection must
// not break the simulator's §6 determinism property.
func TestDeterminismUnderFaults(t *testing.T) {
	run := func() []byte {
		c := New(fastConfig(99))
		mustInstallChaos(c, chaos.Scenario{
			Name: "determinism",
			Faults: []chaos.Fault{
				{Kind: chaos.ControllerCrash, At: 45 * 60, Duration: 300},
				{Kind: chaos.SatcomOutage, Target: "all", At: 60 * 60, Duration: 1800},
				{Kind: chaos.AgentReboot, Target: "hbal-003", At: 80 * 60},
				{Kind: chaos.TelemetryStale, At: 90 * 60, Duration: 1800},
				{Kind: chaos.SolverOutage, At: 100 * 60, Duration: 600},
			},
		})
		c.RunHours(3)
		return fmt.Appendf(runExports(c), "digest %x\n", c.TelemetryDigest())
	}
	diffRuns(t, "second run", run(), run())
}

// TestSatcomOutageDegradesToInBand verifies the degraded control
// plane: with every provider down, the frontend must select in-band
// TTEs (not pad for a dead channel) and the gateway must requeue
// rather than lose messages it cannot place.
func TestSatcomOutageDegradesToInBand(t *testing.T) {
	cfg := fastConfig(5)
	c := New(cfg)
	mustInstallChaos(c, chaos.Scenario{
		Faults: []chaos.Fault{
			{Kind: chaos.SatcomOutage, Target: "all", At: 3600, Duration: 3600},
		},
	})
	c.RunHours(1.5) // mid-outage
	if c.Sat.Available() {
		t.Fatal("gateway reports available during full outage")
	}
	tte := c.Frontend.PickTTE([]string{"hbal-000"}) - c.Eng.Now()
	if tte > 10 {
		t.Errorf("TTE during full satcom outage = %.0fs, want in-band (~3s)", tte)
	}
	c.RunHours(1.5) // outage over
	if !c.Sat.Available() {
		t.Fatal("gateway still unavailable after outage end")
	}
}

// TestSolverOutageKeepsLastPlan verifies the last-known-good degraded
// mode: while the solver is down no new plan is authored, but the
// previous one keeps being enforced.
func TestSolverOutageKeepsLastPlan(t *testing.T) {
	cfg := fastConfig(13)
	c := New(cfg)
	mustInstallChaos(c, chaos.Scenario{
		Faults: []chaos.Fault{
			{Kind: chaos.SolverOutage, At: 3600, Duration: 1800},
		},
	})
	c.Run(3600) // up to outage start
	plan := c.LastPlan()
	if plan == nil {
		t.Fatal("no plan before outage")
	}
	c.Run(3600 + 1700) // deep in the outage
	if c.LastPlan() != plan {
		t.Error("plan replaced during solver outage; want last-known-good held")
	}
	c.RunHours(1)
	if c.LastPlan() == plan {
		t.Error("plan never refreshed after solver recovery")
	}
}

// TestWeatherStalenessDegradedMode verifies that freezing gauge
// telemetry flips the fused model into Degraded mode and that fresh
// samples clear it again.
func TestWeatherStalenessDegradedMode(t *testing.T) {
	cfg := fastConfig(17)
	cfg.WeatherSources = "gauges" // no climatology: staleness is total
	c := New(cfg)
	mustInstallChaos(c, chaos.Scenario{
		Faults: []chaos.Fault{
			{Kind: chaos.TelemetryStale, At: 3600, Duration: 2 * 3600},
		},
	})
	c.Run(3600 + weatherStaleAfterS + 300)
	if !c.WxModel.Degraded {
		t.Error("weather model not Degraded after gauge freeze exceeded threshold")
	}
	c.RunHours(2)
	if c.WxModel.Degraded {
		t.Error("weather model still Degraded after gauges resumed")
	}
}

// TestGatewayLossExcludedFromSolving verifies a lost site leaves the
// solver's gateway set and returns afterwards.
func TestGatewayLossExcludedFromSolving(t *testing.T) {
	cfg := fastConfig(19)
	c := New(cfg)
	mustInstallChaos(c, chaos.Scenario{
		Faults: []chaos.Fault{
			{Kind: chaos.GatewayLoss, Target: "gs-kisumu", At: 1800, Duration: 3600},
		},
	})
	c.Run(1800 + 60)
	for _, g := range c.liveGateways() {
		if g == "gs-kisumu" {
			t.Error("lost gateway still in solver gateway set")
		}
	}
	if !c.InBand.Partitioned("gs-kisumu") {
		t.Error("lost gateway not partitioned from in-band mesh")
	}
	c.RunHours(2)
	found := false
	for _, g := range c.liveGateways() {
		found = found || g == "gs-kisumu"
	}
	if !found {
		t.Error("gateway never rejoined after outage end")
	}
}

// TestChaosRunStaysObservable is a smoke test: the full standard
// scenario over a long run keeps producing telemetry (reachability
// ratios stay defined) and ends with a live network.
func TestChaosRunStaysObservable(t *testing.T) {
	if testing.Short() {
		t.Skip("long chaos smoke test")
	}
	cfg := fastConfig(3)
	c := New(cfg)
	mustInstallChaos(c, chaos.Standard())
	c.RunHours(10)
	for _, layer := range []telemetry.Layer{telemetry.LayerLink, telemetry.LayerControl, telemetry.LayerData} {
		r := c.Reach.Ratio(layer)
		if !(r > 0) { // also catches NaN
			t.Errorf("layer %v reachability = %v, want > 0", layer, r)
		}
	}
	if len(c.Fabric.UpLinks()) == 0 {
		t.Error("no links up at end of chaos run")
	}
	if c.DuplicateEstablishes != 0 {
		t.Errorf("DuplicateEstablishes = %d across standard scenario, want 0", c.DuplicateEstablishes)
	}
}

// mustInstallChaos is InstallChaos for a script the test means to be
// valid: a target naming no node is the test's own bug.
func mustInstallChaos(c *Controller, s chaos.Scenario) *chaos.Injector {
	inj, err := c.InstallChaos(s)
	if err != nil {
		panic(err)
	}
	return inj
}
