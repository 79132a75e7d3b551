package cdpi

import (
	"testing"

	"minkowski/internal/geo"
)

// livePending counts the frontend's live command rows.
func livePending(fe *Frontend) int {
	n := 0
	for _, l := range fe.pending {
		n += len(l)
	}
	return n
}

// timeOutOnce silences a node's agent (it enacts but never responds),
// sends it a link-establish and steps the engine until that times out,
// leaving its retry's back-off queued.
func timeOutOnce(t *testing.T, w *world, node string, done func(bool)) {
	t.Helper()
	w.fe.agents[node].enactor = EnactorFunc(func(*Command, func(bool)) {})
	w.fe.Send(&Command{Node: node, Kind: KindLinkEstablish, TTE: w.fe.PickTTE([]string{node})}, done)
	for w.fe.Timeouts == 0 {
		w.eng.Step()
	}
	if w.fe.Retries != 1 || livePending(w.fe) != 1 {
		t.Fatalf("after the timeout: retries %d, live rows %d; want 1, 1", w.fe.Retries, livePending(w.fe))
	}
}

// TestStaleRowsStayInert: an event still queued for a command or
// message row whose work is over fires, counted in Eng.Processed as
// it always was, and does nothing. A command row is reused only after
// its retry event has fired; a heartbeat reaches the agent that sent
// it. The Processed counts are those the closure-per-message frontend
// produced on the same scripts.
func TestStaleRowsStayInert(t *testing.T) {
	t.Run("retry-after-completion", func(t *testing.T) {
		w := newWorld(t, 2, true)
		w.eng.Run(10)
		var dones []bool
		timeOutOnce(t, w, nodeID(2), func(ok bool) { dones = append(dones, ok) })
		// The side channel completes the command during its back-off.
		w.fe.agentConnected(nodeID(2))
		if len(dones) != 1 || !dones[0] || !w.fe.Enactments[0].Inferred || w.fe.Enactments[0].Attempts != 2 {
			t.Fatalf("side channel: dones %v, enactments %+v", dones, w.fe.Enactments)
		}
		// Its row is held by the queued retry: a new command gets
		// another.
		var okB bool
		w.fe.Send(&Command{Node: nodeID(1), Kind: KindDrain, TTE: w.fe.PickTTE([]string{nodeID(1)})},
			func(ok bool) { okB = ok })
		if len(w.fe.freeCmds) != 0 {
			t.Fatalf("%d free rows, want 0: the held row was reused", len(w.fe.freeCmds))
		}
		w.eng.Run(w.eng.Now() + 10)
		if w.fe.Retries != 1 || w.fe.Timeouts != 1 || len(dones) != 1 {
			t.Errorf("the stale retry acted: retries %d, timeouts %d, dones %v", w.fe.Retries, w.fe.Timeouts, dones)
		}
		if !okB || w.fe.agents[nodeID(1)].Enacted != 1 || w.fe.Enactments[1].Attempts != 1 {
			t.Errorf("second command: ok %v, enacted %d, enactments %+v", okB, w.fe.agents[nodeID(1)].Enacted, w.fe.Enactments)
		}
		if len(w.fe.freeCmds) != 2 {
			t.Errorf("free rows %d after the retry fired, want 2", len(w.fe.freeCmds))
		}
		w.fe.Send(&Command{Node: nodeID(1), Kind: KindDrain}, nil)
		if len(w.fe.freeCmds) != 1 {
			t.Errorf("%d free rows, want 1: a free row is reused", len(w.fe.freeCmds))
		}
		w.eng.Run(w.eng.Now() + 10)
		if w.eng.Processed != 1165 {
			t.Errorf("Processed = %d, want 1165", w.eng.Processed)
		}
	})

	t.Run("crash-in-flight", func(t *testing.T) {
		w := newWorld(t, 2, true)
		w.eng.Run(10)
		called := 0
		timeOutOnce(t, w, nodeID(2), func(bool) { called++ })
		// A second command's in-band delivery is in flight at the crash.
		w.fe.Send(&Command{Node: nodeID(1), Kind: KindDrain, TTE: w.fe.PickTTE([]string{nodeID(1)})},
			func(bool) { called++ })
		enactments := len(w.fe.Enactments)
		w.fe.Crash()
		if livePending(w.fe) != 0 || len(w.fe.freeCmds) != 1 {
			t.Fatalf("after the crash: live rows %d, free %d; want 0, 1 (the retrying row is held)", livePending(w.fe), len(w.fe.freeCmds))
		}
		w.eng.Run(w.eng.Now() + 10)
		if a := w.fe.agents[nodeID(1)]; a.Enacted != 1 {
			t.Errorf("the in-flight delivery must still reach its agent: enacted %d", a.Enacted)
		}
		if called != 0 || len(w.fe.Enactments) != enactments || w.fe.Retries != 1 || w.fe.Timeouts != 1 {
			t.Errorf("a crashed frontend acted: callbacks %d, enactments %d→%d, retries %d, timeouts %d",
				called, enactments, len(w.fe.Enactments), w.fe.Retries, w.fe.Timeouts)
		}
		if len(w.fe.freeCmds) != 2 {
			t.Errorf("%d free rows once the retry fired, want 2", len(w.fe.freeCmds))
		}
		if w.eng.Processed != 1120 {
			t.Errorf("Processed = %d, want 1120", w.eng.Processed)
		}
	})

	t.Run("reboot-heartbeat-in-flight", func(t *testing.T) {
		w := newWorld(t, 2, true)
		node := nodeID(2)
		w.fe.agents[node].StateReport = func() geo.LLA { return geo.LLA{Alt: 20e3} }
		reports := 0
		w.fe.OnPositionReport = func(n string, _ geo.LLA) {
			if n == node {
				reports++
			}
		}
		w.eng.Run(10) // the heartbeat sent at t=10 is in flight
		if reports != 2 {
			t.Fatalf("reports %d before the reboot, want 2 (t=0 and t=5)", reports)
		}
		old := w.fe.agents[node]
		w.fe.RebootAgent(node)
		w.eng.Run(11)
		if reports != 2 {
			t.Errorf("reports %d: the in-flight heartbeat reached the replacement, not its stopped sender", reports)
		}
		if !old.stopped || !w.fe.InBandUp(node) {
			t.Errorf("old agent stopped %v, node in-band %v; want true, true (the replacement connected)", old.stopped, w.fe.InBandUp(node))
		}
		if w.eng.Processed != 62 {
			t.Errorf("Processed = %d, want 62", w.eng.Processed)
		}
	})
}
