package core

import (
	"fmt"
	"testing"

	"minkowski/internal/chaos"
)

// replConfig is fastConfig with the replicated control plane enabled:
// primary + warm standby, 30 s lease, journal stream.
func replConfig(seed int64) Config {
	cfg := fastConfig(seed)
	cfg.ReplicationEnabled = true
	return cfg
}

// TestFailoverPromotesStandby is the tentpole acceptance scenario: the
// acting primary dies mid-operation, the standby notices the lapsed
// lease and promotes at a bumped epoch, reconciles from its replicated
// journal, and carries on — zero duplicate enactments, zero
// stale-epoch acceptances, and a clean lease audit.
func TestFailoverPromotesStandby(t *testing.T) {
	cfg := replConfig(7)
	c := New(cfg)
	mustInstallChaos(c, chaos.Scenario{
		Name: "failover",
		Faults: []chaos.Fault{
			{Kind: chaos.ControllerFailover, At: 3600, Duration: 600},
		},
	})
	c.RunHours(3)

	if c.Promotions != 1 {
		t.Fatalf("Promotions = %d, want 1", c.Promotions)
	}
	if c.Down() {
		t.Fatal("controller down after failover — promotion did not take over")
	}
	if got := c.actingID; got != "ctl-b" {
		t.Errorf("acting replica = %q, want ctl-b (the promoted standby)", got)
	}
	if c.epoch < 2 {
		t.Errorf("Epoch = %d, want >= 2 after promotion", c.epoch)
	}
	if c.DuplicateEstablishes != 0 {
		t.Errorf("DuplicateEstablishes = %d, want 0 — promotion re-actuated replicated work",
			c.DuplicateEstablishes)
	}
	if n := c.Frontend.StaleEpochAccepts(); n != 0 {
		t.Errorf("StaleEpochAccepts = %d, want 0 with fencing on", n)
	}
	if n := c.Frontend.EpochRegressions(); n != 0 {
		t.Errorf("EpochRegressions = %d, want 0 — an agent enacted a lower epoch after a higher one", n)
	}
	if probs := c.Lease.Audit(); len(probs) != 0 {
		t.Errorf("lease audit found %d problems: %v", len(probs), probs)
	}
	// The dead ex-primary rejoined as the new standby when the fault
	// window closed; the stream must be live again.
	if !c.Repl.Connected() {
		t.Error("replicator not reconnected after the failed replica rejoined as standby")
	}
	if c.standbyDown {
		t.Error("standby still marked down after rejoin")
	}
	// And the new acting replica must actually be operating.
	if len(c.Fabric.UpLinks()) == 0 {
		t.Error("no links up under the promoted replica")
	}
}

// TestPartitionFencingStopsSplitBrain partitions the primary away from
// the lease service while its process stays live. The standby promotes;
// the deposed primary keeps solving and dispatching at its stale epoch.
// Epoch fencing at the agents must reject every stale command — no
// double-enactment, no epoch regression.
func TestPartitionFencingStopsSplitBrain(t *testing.T) {
	cfg := replConfig(7)
	c := New(cfg)
	mustInstallChaos(c, chaos.Scenario{
		Name: "split-brain",
		Faults: []chaos.Fault{
			{Kind: chaos.ControllerPartition, At: 3600, Duration: 1200},
		},
	})
	c.RunHours(3)

	if c.Promotions != 1 {
		t.Fatalf("Promotions = %d, want 1", c.Promotions)
	}
	if c.Standdowns != 1 {
		t.Errorf("Standdowns = %d, want 1 — the deposed primary never stood down on heal", c.Standdowns)
	}
	if c.RogueSolves == 0 {
		t.Error("RogueSolves = 0 — the partitioned ex-primary never exercised the split-brain path")
	}
	if n := c.Frontend.StaleEpochRejections(); n == 0 {
		t.Error("StaleEpochRejections = 0 — the rogue primary's commands were never fenced")
	}
	if n := c.Frontend.StaleEpochAccepts(); n != 0 {
		t.Errorf("StaleEpochAccepts = %d, want 0 with fencing on", n)
	}
	if n := c.Frontend.EpochRegressions(); n != 0 {
		t.Errorf("EpochRegressions = %d, want 0 — fencing let a stale command enact", n)
	}
	if probs := c.Lease.Audit(); len(probs) != 0 {
		t.Errorf("lease audit found %d problems: %v", len(probs), probs)
	}
	if c.actingID != "ctl-b" {
		t.Errorf("acting replica = %q, want ctl-b", c.actingID)
	}
}

// TestPartitionWithoutFencingAcceptsStale is the pre-fix contrast: on
// NewPreFix (epoch fencing off) the same split-brain scenario has
// agents enacting the rogue primary's stale commands — the defect the
// fencing exists to close, and the signal the chaosearch pre-fix repro
// keys on.
func TestPartitionWithoutFencingAcceptsStale(t *testing.T) {
	c := NewPreFix(replConfig(7))
	mustInstallChaos(c, chaos.Scenario{
		Name: "split-brain-unfenced",
		Faults: []chaos.Fault{
			{Kind: chaos.ControllerPartition, At: 3600, Duration: 1200},
		},
	})
	c.RunHours(3)

	if c.Promotions != 1 {
		t.Fatalf("Promotions = %d, want 1", c.Promotions)
	}
	if c.RogueSolves == 0 {
		t.Fatal("RogueSolves = 0 — scenario never exercised the split-brain path")
	}
	if n := c.Frontend.StaleEpochAccepts(); n == 0 {
		t.Error("StaleEpochAccepts = 0 — with fencing disabled the stale commands should have been accepted")
	}
}

// TestJournalConvergenceAfterFailover checks the replication stream's
// end-state invariant: once the failed replica has rejoined as standby
// and the stream has drained, the acting journal and the standby
// replica digest identically.
func TestJournalConvergenceAfterFailover(t *testing.T) {
	cfg := replConfig(11)
	c := New(cfg)
	mustInstallChaos(c, chaos.Scenario{
		Name: "convergence",
		Faults: []chaos.Fault{
			{Kind: chaos.ControllerFailover, At: 3600, Duration: 600},
		},
	})
	c.RunHours(4)
	// The horizon can land mid-stream (ReplDelayS of slack behind any
	// journal write); advance to just before the next solve so the
	// stream drains without new plan churn.
	c.Run(c.Eng.Now() + cfg.SolveIntervalS - 1)

	if c.Promotions != 1 {
		t.Fatalf("Promotions = %d, want 1", c.Promotions)
	}
	if !c.Repl.Connected() {
		t.Fatal("replicator disconnected at end of run")
	}
	if n := c.Repl.InFlight(); n != 0 {
		t.Fatalf("replication stream still has %d events in flight at end of run", n)
	}
	if a, s := c.Journal.Digest(), c.Repl.StandbyJournal().Digest(); a != s {
		t.Errorf("journal digests diverge after failover: acting=%x standby=%x", a, s)
	}
}

// TestCrashRestartWithReplication runs the original total-outage crash
// under the replicated configuration: both replicas go down (the
// standby with the shared process), the restart re-acquires the lease
// at a bumped epoch, reconciles from the durable journal, and
// re-bootstraps a fresh standby.
func TestCrashRestartWithReplication(t *testing.T) {
	cfg := replConfig(7)
	c := New(cfg)
	mustInstallChaos(c, chaos.Scenario{
		Name: "crash-replicated",
		Faults: []chaos.Fault{
			{Kind: chaos.ControllerCrash, At: 2 * 3600, Duration: 600},
		},
	})
	c.RunHours(4)

	if c.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", c.Crashes)
	}
	if c.Down() {
		t.Fatal("controller still down after restart")
	}
	if c.Promotions != 0 {
		t.Errorf("Promotions = %d, want 0 — a total outage has no surviving standby to promote", c.Promotions)
	}
	if c.epoch < 2 {
		t.Errorf("Epoch = %d, want >= 2 — restart must re-acquire the lease at a bumped epoch", c.epoch)
	}
	if c.DuplicateEstablishes != 0 {
		t.Errorf("DuplicateEstablishes = %d, want 0", c.DuplicateEstablishes)
	}
	if !c.Repl.Connected() {
		t.Error("standby not re-bootstrapped after restart")
	}
	if probs := c.Lease.Audit(); len(probs) != 0 {
		t.Errorf("lease audit found %d problems: %v", len(probs), probs)
	}
}

// TestEndToEndDeterminismReplicationChaos extends the scale-3
// determinism regression to the replicated control plane under both
// new fault kinds: a primary-only death with standby promotion, then a
// split-brain partition with a live rogue primary. Same seed + same
// script twice must produce byte-identical journals, candidate graphs,
// and failover counters.
func TestEndToEndDeterminismReplicationChaos(t *testing.T) {
	script := chaos.Scenario{
		Name: "determinism-replication",
		Faults: []chaos.Fault{
			{Kind: chaos.ControllerFailover, At: 1200, Duration: 600},
			{Kind: chaos.ControllerPartition, At: 3600, Duration: 900},
		},
	}
	run := func() []byte {
		cfg := DefaultConfig()
		cfg.Seed = 11
		cfg.FleetSize = 21 // experiments.baseScenario at scale 3
		cfg.SolveIntervalS = 120
		cfg.AgentConnCheckS = 10
		cfg.ReplicationEnabled = true
		c := New(cfg)
		mustInstallChaos(c, script)
		c.RunHours(2)
		return fmt.Appendf(runExports(c), "digest %x acting %s epoch %d promotions %d standdowns %d rogue %d rej %d\n",
			c.TelemetryDigest(), c.actingID, c.epoch,
			c.Promotions, c.Standdowns, c.RogueSolves, c.Frontend.StaleEpochRejections())
	}
	a := run()
	diffRuns(t, "second run", a, run())
	if len(a) == 0 {
		t.Fatal("empty journal + graph — scenario produced no activity")
	}
}

// TestRebootReseedsPositionGuard is the re-registration satellite: a
// byzantine node gets quarantined by the position guard, then its agent
// reboots mid-window. Re-registration must re-seed the guard's envelope
// from the controller's model (clearing the quarantine and the spoofed
// reference), and the still-lying node must then be re-quarantined on
// its next spoofed report rather than having poisoned the new envelope.
func TestRebootReseedsPositionGuard(t *testing.T) {
	const node = "hbal-003"
	cfg := fastConfig(7)
	c := New(cfg)
	mustInstallChaos(c, chaos.Scenario{
		Name: "reboot-reseed",
		Faults: []chaos.Fault{
			{Kind: chaos.ByzantineTelemetry, Target: node, At: 3000, Duration: 1800},
			{Kind: chaos.AgentReboot, Target: node, At: 3600}, // impulse
		},
	})

	i, _ := c.Fleet.IDs.Lookup(node)
	c.Run(3599)
	if !c.PosGuard.Quarantined(i) {
		t.Fatal("node not quarantined before the reboot — byzantine window had no effect")
	}
	_, preAt, _ := c.PosGuard.LastGood(i)
	if preAt >= 3000 {
		t.Fatalf("LastGood advanced to %v during quarantine — envelope walked outward", preAt)
	}

	c.Run(3600.5)
	_, at, ok := c.PosGuard.LastGood(i)
	if !ok || at < 3600 {
		t.Fatalf("LastGood at = %v after reboot, want >= 3600 — re-registration did not re-seed", at)
	}

	// The node is still byzantine; the fresh envelope must reject its
	// next spoofed report, not have inherited it.
	c.Run(4700)
	if !c.PosGuard.Quarantined(i) {
		t.Error("node not re-quarantined after reboot while still byzantine")
	}

	// After the byzantine window lifts, honest telemetry clears the
	// quarantine for good.
	c.RunHours(2)
	if c.PosGuard.Quarantined(i) {
		t.Error("node still quarantined well after the byzantine window ended")
	}
}
