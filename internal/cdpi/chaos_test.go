package cdpi

import (
	"testing"
)

// TestRetryEscalationThroughOutages walks one command through the
// full failure ladder: the in-band attempt dies with the mesh path,
// the satcom retry meets a total provider outage and is dropped, the
// frontend backs off on the unified policy, and once a provider
// returns the command finally succeeds over satcom — with visible
// attempt counts and exactly one enactment on the agent.
func TestRetryEscalationThroughOutages(t *testing.T) {
	w := newWorld(t, 3, true)
	w.eng.Run(10) // agents connect and heartbeat

	// The full satcom outage starts before the command is sent.
	w.fe.sat.SetProviderDown("all", true)

	enacted := 0
	w.fe.agents = map[string]*Agent{}
	w.fe.Register("hbal-003", EnactorFunc(func(cmd *Command, done func(bool)) {
		enacted++
		done(true)
	}))
	w.fe.lastHeard["hbal-003"] = w.eng.Now() // node starts in-band

	var completed, ok bool
	cmd := &Command{Node: "hbal-003", Kind: KindLinkEstablish, TTE: w.fe.PickTTE([]string{"hbal-003"})}
	start := w.eng.Now()
	w.fe.Send(cmd, func(o bool) { completed, ok = true, o })

	// The in-band path dies immediately after dispatch.
	w.net.Disconnect("hbal-002", "hbal-003")
	w.rt.TopologyChanged()

	// One provider recovers mid-ladder: after the in-band failure
	// (~TTE+240 s) and the dropped satcom attempt (~another 243 s),
	// but before the next backed-off retry dispatches.
	w.eng.At(start+460, func() { w.fe.sat.SetProviderDown("leo", false) })

	w.eng.Run(start + 3600)

	if !completed {
		t.Fatalf("command never completed (retries=%d timeouts=%d pending=%d)",
			w.fe.Retries, w.fe.Timeouts, len(w.fe.pending))
	}
	if !ok {
		t.Fatalf("command failed; want eventual success over recovered satcom (retries=%d)", w.fe.Retries)
	}
	if w.fe.Retries < 2 {
		t.Errorf("Retries = %d, want >= 2 (in-band loss, then satcom outage)", w.fe.Retries)
	}
	if w.fe.sat.Dropped == 0 {
		t.Error("gateway dropped nothing — the outage leg never happened")
	}
	if enacted != 1 {
		t.Errorf("agent enacted %d times, want exactly 1 (no duplicate enactment)", enacted)
	}
	// The final enactment must record the full attempt ladder and the
	// satcom channel.
	var final *Enactment
	for i := range w.fe.Enactments {
		e := &w.fe.Enactments[i]
		if e.Kind == KindLinkEstablish && e.OK {
			final = e
		}
	}
	if final == nil {
		t.Fatal("no successful link-establish enactment recorded")
	}
	if final.Attempts < 3 {
		t.Errorf("enactment attempts = %d, want >= 3", final.Attempts)
	}
	if final.Channel != ChannelSatcom {
		t.Errorf("final channel = %v, want satcom", final.Channel)
	}
}

// TestHeartbeatBoundaryIsStrict pins the liveness comparison at the
// exact timeout boundary: a heartbeat precisely HeartbeatTimeoutS old
// is expired, independent of event ordering at that instant.
func TestHeartbeatBoundaryIsStrict(t *testing.T) {
	w := newWorld(t, 1, true)
	w.fe.lastHeard["hbal-001"] = w.eng.Now()
	if !w.fe.InBandUp("hbal-001") {
		t.Fatal("fresh heartbeat must count as in-band")
	}
	w.eng.Run(w.fe.cfg.HeartbeatTimeoutS - 0.001)
	if !w.fe.InBandUp("hbal-001") {
		t.Error("heartbeat just inside the window must count as in-band")
	}
	// Freeze further heartbeats, then land exactly on the boundary.
	w.fe.agents["hbal-001"].stop()
	w.fe.lastHeard["hbal-001"] = 100
	w.eng.Run(100 + w.fe.cfg.HeartbeatTimeoutS)
	if w.fe.InBandUp("hbal-001") {
		t.Error("heartbeat exactly HeartbeatTimeoutS old must be expired (strict comparison)")
	}
}

// TestFrontendCrashDropsPendingState verifies the crash model: pending
// commands are forgotten (late responses ignored), sends are refused
// while down, and a restart accepts traffic again.
func TestFrontendCrashDropsPendingState(t *testing.T) {
	w := newWorld(t, 2, true)
	w.eng.Run(10)
	var completed bool
	cmd := &Command{Node: "hbal-002", Kind: KindDrain, TTE: w.fe.PickTTE([]string{"hbal-002"})}
	w.fe.Send(cmd, func(bool) { completed = true })
	if len(w.fe.pending) != 1 {
		t.Fatalf("pending = %d, want 1", len(w.fe.pending))
	}
	w.fe.Crash()
	if len(w.fe.pending) != 0 {
		t.Error("crash must wipe pending commands")
	}
	if id := w.fe.Send(&Command{Node: "hbal-002", Kind: KindDrain}, nil); id != 0 {
		t.Error("crashed frontend must refuse sends")
	}
	w.eng.Run(w.eng.Now() + 120)
	if completed {
		t.Error("command completed across a crash — its tracking state should be gone")
	}
	if w.fe.InBandUp("hbal-002") {
		t.Error("crash must wipe the heartbeat world model")
	}
	w.fe.Restart()
	w.eng.Run(w.eng.Now() + 60)
	if !w.fe.InBandUp("hbal-002") {
		t.Error("heartbeat model must rebuild after restart")
	}
	var ok bool
	w.fe.Send(&Command{Node: "hbal-002", Kind: KindDrain, TTE: w.fe.PickTTE([]string{"hbal-002"})},
		func(o bool) { ok = o })
	w.eng.Run(w.eng.Now() + 120)
	if !ok {
		t.Error("restarted frontend must process commands again")
	}
}

// TestAgentRebootWipesDedupeState verifies the config-wipe semantics:
// a rebooted agent forgets its seen-command IDs, and the replaced
// instance enacts nothing further.
func TestAgentRebootWipesDedupeState(t *testing.T) {
	w := newWorld(t, 1, true)
	w.eng.Run(10)
	old := w.fe.agents["hbal-001"]
	cmd := &Command{ID: 500, Node: "hbal-001", Kind: KindDrain, TTE: w.eng.Now() + 1}
	old.receive(cmd, ChannelInBand)
	w.eng.Run(w.eng.Now() + 5)
	if old.Enacted != 1 {
		t.Fatalf("enacted = %d, want 1", old.Enacted)
	}
	fresh := w.fe.RebootAgent("hbal-001")
	if fresh == nil || fresh == old {
		t.Fatal("reboot must produce a fresh agent instance")
	}
	// The old instance is dead: late deliveries to it enact nothing.
	old.receive(&Command{ID: 501, Node: "hbal-001", Kind: KindDrain, TTE: w.eng.Now() + 1}, ChannelSatcom)
	w.eng.Run(w.eng.Now() + 5)
	if old.Enacted != 1 {
		t.Error("stopped agent must not enact after reboot")
	}
	// The fresh instance has empty dedupe state: the same command ID
	// delivered again is executed (the controller guards against this
	// by journaling, not by relying on node memory).
	fresh.receive(&Command{ID: 500, Node: "hbal-001", Kind: KindDrain, TTE: w.eng.Now() + 1}, ChannelInBand)
	w.eng.Run(w.eng.Now() + 5)
	if fresh.Enacted != 1 {
		t.Errorf("fresh agent enacted %d, want 1 (config wipe forgets dedupe state)", fresh.Enacted)
	}
}
