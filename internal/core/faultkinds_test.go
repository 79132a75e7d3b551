package core

import (
	"testing"

	"minkowski/internal/chaos"
)

// TestLeaseServiceFlap exercises the unreliable-cell window at the
// unit level: writes are dropped and counted, reads keep answering
// from existing state, and healing lets a fresh acquire through at a
// bumped epoch.
func TestLeaseServiceFlap(t *testing.T) {
	s := &LeaseService{TTLS: 30}
	if _, ok := s.Acquire("ctl-a", 0); !ok {
		t.Fatal("initial acquire failed")
	}
	s.SetFlapping(true)
	if s.Renew("ctl-a", 10) {
		t.Error("renew succeeded while flapping")
	}
	if _, ok := s.Acquire("ctl-b", 40); ok {
		t.Error("acquire succeeded while flapping (lease even lapsed)")
	}
	if s.FlapDenials() != 2 {
		t.Errorf("FlapDenials = %d, want 2", s.FlapDenials())
	}
	// Reads still serve the cell's existing state: the lease shows its
	// holder while live, then lapses on its own clock.
	if h, ep, live := s.Holder(20); h != "ctl-a" || ep != 1 || !live {
		t.Errorf("Holder(20) = %q/%d/%v, want ctl-a/1/live", h, ep, live)
	}
	if _, _, live := s.Holder(50); live {
		t.Error("lease still live past TTL — flapping must not extend it")
	}
	s.SetFlapping(false)
	ep, ok := s.Acquire("ctl-b", 60)
	if !ok || ep != 2 {
		t.Fatalf("post-heal acquire = %d/%v, want epoch 2", ep, ok)
	}
	if probs := s.Audit(); len(probs) != 0 {
		t.Errorf("audit found %d problems: %v", len(probs), probs)
	}
}

// TestLeaseFlapIntegration runs the lease-flap chaos fault end to end:
// the cell drops writes for ten minutes (far past the lease TTL), so
// the acting primary's lease lapses with the process healthy and
// NOBODY can take a fresh one until the cell heals. The run must come
// back: denials counted, a fresh grant at a bumped epoch after the
// heal, a clean tenure audit, and a live controller at the end.
func TestLeaseFlapIntegration(t *testing.T) {
	cfg := replConfig(13)
	c := New(cfg)
	mustInstallChaos(c, chaos.Scenario{
		Name: "lease-flap",
		Faults: []chaos.Fault{
			{Kind: chaos.LeaseFlap, At: 3600, Duration: 600},
		},
	})
	c.RunHours(3)

	if c.Lease.FlapDenials() == 0 {
		t.Error("FlapDenials = 0 — the flap window never denied a write")
	}
	if c.Lease.epoch < 2 {
		t.Errorf("Epoch = %d, want >= 2 — the lapsed lease was never re-acquired at a bumped epoch",
			c.Lease.epoch)
	}
	if c.Down() {
		t.Error("controller down after the cell healed")
	}
	if h, _, live := c.Lease.Holder(c.Eng.Now()); !live || h == "" {
		t.Errorf("no live lease holder at end of run (holder=%q live=%v)", h, live)
	}
	if probs := c.Lease.Audit(); len(probs) != 0 {
		t.Errorf("lease audit found %d problems: %v", len(probs), probs)
	}
	if n := c.Frontend.StaleEpochAccepts(); n != 0 {
		t.Errorf("StaleEpochAccepts = %d, want 0 — the flap let a stale epoch through", n)
	}
}

// TestReplicaPartitionIntegration runs the replica-partition fault:
// the acting primary's command path goes deaf for ten minutes while
// its lease, replication stream, and telemetry stay up — so it keeps
// renewing (no failover) but every dispatched command is lost. The
// mesh must degrade gracefully and re-converge once the path heals.
func TestReplicaPartitionIntegration(t *testing.T) {
	cfg := replConfig(17)
	c := New(cfg)
	mustInstallChaos(c, chaos.Scenario{
		Name: "replica-partition",
		Faults: []chaos.Fault{
			{Kind: chaos.ReplicaPartition, Target: "ctl-a", At: 3600, Duration: 600},
		},
	})
	c.RunHours(3)

	if c.CmdDeafDrops() == 0 {
		t.Error("CmdDeafDrops = 0 — the deaf window never dropped a command")
	}
	if c.Promotions != 0 {
		t.Errorf("Promotions = %d, want 0 — the lease path was untouched, nobody should promote",
			c.Promotions)
	}
	if c.Down() {
		t.Error("controller down at end of run")
	}
	if got := c.actingID; got != "ctl-a" {
		t.Errorf("acting replica = %q, want ctl-a (deafness is not a crash)", got)
	}
	// After the heal the controller must actually re-program the mesh:
	// links exist and no agent is stuck on a stale epoch.
	if up := c.Fabric.UpLinks(); len(up) == 0 {
		t.Error("no links up after the command path healed")
	}
	if n := c.Frontend.EpochRegressions(); n != 0 {
		t.Errorf("EpochRegressions = %d, want 0", n)
	}
	if probs := c.Lease.Audit(); len(probs) != 0 {
		t.Errorf("lease audit found %d problems: %v", len(probs), probs)
	}
}
