package cdpi

import (
	"testing"

	"minkowski/internal/geo"
	"minkowski/internal/satcom"
)

// livePending counts the frontend's live command rows.
func livePending(fe *Frontend) int {
	n := 0
	for _, s := range fe.nodes {
		n += len(s.pending)
	}
	return n
}

// timeOutOnce silences a node's agent (it enacts but never responds),
// sends it a link-establish and steps the engine until that times out,
// leaving its retry's back-off queued.
func timeOutOnce(t *testing.T, w *world, node string, done func(bool)) {
	t.Helper()
	w.fe.node(w.fe.idx(node)).agent.enact = func(*Hold) {}
	w.fe.Send(Command{Node: node, Kind: KindLinkEstablish, TTE: w.fe.PickTTE([]string{node})}, done)
	for w.fe.Timeouts == 0 {
		w.eng.Step()
	}
	if w.fe.Retries != 1 || livePending(w.fe) != 1 {
		t.Fatalf("after the timeout: retries %d, live rows %d; want 1, 1", w.fe.Retries, livePending(w.fe))
	}
}

// TestStaleRowsStayInert: an event still queued for a command, message
// or hold row whose work is over fires, counted in Eng.Processed as it
// always was, and does nothing. A command row is reused only after its
// retry event has fired; a heartbeat reaches the agent that sent it; a
// retry re-stamps its row's command while the agent still holds the
// old attempt's copy; a satcom message's row is freed on drop as on
// delivery. The Processed counts are those the closure-per-message
// frontend produced on the same scripts.
func TestStaleRowsStayInert(t *testing.T) {
	t.Run("retry-after-completion", func(t *testing.T) {
		w := newWorld(t, 2, true)
		w.eng.Run(10)
		var dones []bool
		timeOutOnce(t, w, nodeID(2), func(ok bool) { dones = append(dones, ok) })
		// The side channel completes the command during its back-off.
		w.fe.agentConnected(w.fe.idx(nodeID(2)))
		if len(dones) != 1 || !dones[0] || !w.fe.Enactments[0].Inferred || w.fe.Enactments[0].Attempts != 2 {
			t.Fatalf("side channel: dones %v, enactments %+v", dones, w.fe.Enactments)
		}
		// Its row is held by the queued retry: a new command gets
		// another.
		var okB bool
		w.fe.Send(Command{Node: nodeID(1), Kind: KindDrain, TTE: w.fe.PickTTE([]string{nodeID(1)})},
			func(ok bool) { okB = ok })
		if len(w.fe.freeCmds) != 0 {
			t.Fatalf("%d free rows, want 0: the held row was reused", len(w.fe.freeCmds))
		}
		w.eng.Run(w.eng.Now() + 10)
		if w.fe.Retries != 1 || w.fe.Timeouts != 1 || len(dones) != 1 {
			t.Errorf("the stale retry acted: retries %d, timeouts %d, dones %v", w.fe.Retries, w.fe.Timeouts, dones)
		}
		if !okB || w.fe.node(w.fe.idx(nodeID(1))).agent.Enacted != 1 || w.fe.Enactments[1].Attempts != 1 {
			t.Errorf("second command: ok %v, enacted %d, enactments %+v", okB, w.fe.node(w.fe.idx(nodeID(1))).agent.Enacted, w.fe.Enactments)
		}
		if len(w.fe.freeCmds) != 2 {
			t.Errorf("free rows %d after the retry fired, want 2", len(w.fe.freeCmds))
		}
		w.fe.Send(Command{Node: nodeID(1), Kind: KindDrain}, nil)
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
		w.fe.Send(Command{Node: nodeID(1), Kind: KindDrain, TTE: w.fe.PickTTE([]string{nodeID(1)})},
			func(bool) { called++ })
		enactments := len(w.fe.Enactments)
		w.fe.Crash()
		if livePending(w.fe) != 0 || len(w.fe.freeCmds) != 1 {
			t.Fatalf("after the crash: live rows %d, free %d; want 0, 1 (the retrying row is held)", livePending(w.fe), len(w.fe.freeCmds))
		}
		w.eng.Run(w.eng.Now() + 10)
		if a := w.fe.node(w.fe.idx(nodeID(1))).agent; a.Enacted != 1 {
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
		w.fe.node(w.fe.idx(node)).agent.StateReport = func() geo.LLA { return geo.LLA{Alt: 20e3} }
		reports := 0
		w.fe.OnPositionReport = func(n int32, _ geo.LLA) {
			if n == w.fe.idx(node) {
				reports++
			}
		}
		w.eng.Run(10) // the heartbeat sent at t=10 is in flight
		if reports != 2 {
			t.Fatalf("reports %d before the reboot, want 2 (t=0 and t=5)", reports)
		}
		old := w.fe.node(w.fe.idx(node)).agent
		w.fe.RebootAgent(w.fe.idx(node))
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

	t.Run("retry-while-old-attempt-held", func(t *testing.T) {
		w := newWorld(t, 2, true)
		w.eng.Run(10)
		node := nodeID(2)
		type enactment struct {
			id  uint64
			at  float64
			tte float64
		}
		var enacted []enactment
		w.fe.node(w.fe.idx(node)).agent.enact = func(h *Hold) {
			enacted = append(enacted, enactment{h.Cmd.ID, w.eng.Now(), h.Cmd.TTE})
			h.Done(true)
		}
		// A negative allowance times the first attempt out while the
		// agent still holds it to its TTE, 100 s out.
		w.fe.cfg.TimeoutFastS = -60
		var dones []bool
		tte := w.eng.Now() + 100
		first := w.fe.Send(Command{Node: node, Kind: KindDrain, TTE: tte}, func(ok bool) { dones = append(dones, ok) })
		for w.fe.Timeouts == 0 {
			w.eng.Step()
		}
		w.fe.cfg.TimeoutFastS = 30
		w.eng.Run(tte + 60)
		if len(enacted) != 2 || enacted[0].id == first || enacted[1] != (enactment{first, tte, tte}) {
			t.Errorf("enactments %+v: want the retry's, then attempt %d's at its own TTE %v", enacted, first, tte)
		}
		if len(dones) != 1 || !dones[0] || len(w.fe.Enactments) != 1 || w.fe.Enactments[0].Attempts != 2 {
			t.Errorf("dones %v, enactments %+v; want one success on attempt 2, the held attempt's response ignored", dones, w.fe.Enactments)
		}
		if w.fe.Retries != 1 || w.fe.Timeouts != 1 {
			t.Errorf("retries %d, timeouts %d; want 1, 1", w.fe.Retries, w.fe.Timeouts)
		}
		if len(w.fe.freeHolds) != 2 || livePending(w.fe) != 0 {
			t.Errorf("free holds %d, live rows %d; want 2, 0", len(w.fe.freeHolds), livePending(w.fe))
		}
		if w.eng.Processed != 731 {
			t.Errorf("Processed = %d, want 731", w.eng.Processed)
		}
	})

	t.Run("reboot-enactment-held", func(t *testing.T) {
		w := newWorld(t, 2, true)
		w.eng.Run(10)
		node := nodeID(2)
		var dones []bool
		w.fe.Send(Command{Node: node, Kind: KindDrain, TTE: w.fe.PickTTE([]string{node})}, func(ok bool) { dones = append(dones, ok) })
		w.eng.Run(w.eng.Now() + 1) // delivered and held to its TTE
		old := w.fe.node(w.fe.idx(node)).agent
		fresh := w.fe.RebootAgent(w.fe.idx(node))
		w.eng.Run(w.eng.Now() + 120)
		if old.Enacted != 0 || fresh.Enacted != 1 {
			t.Errorf("enacted: stopped agent %d, replacement %d; want 0, 1 (the retry)", old.Enacted, fresh.Enacted)
		}
		if len(dones) != 1 || !dones[0] || w.fe.Enactments[0].Attempts != 2 || w.fe.Timeouts != 1 {
			t.Errorf("dones %v, enactments %+v, timeouts %d; want success on attempt 2 after one timeout", dones, w.fe.Enactments, w.fe.Timeouts)
		}
		if len(w.fe.freeHolds) != 1 {
			t.Errorf("free holds %d, want 1: the stopped agent's hold and the retry's share a row", len(w.fe.freeHolds))
		}
		if w.eng.Processed != 573 {
			t.Errorf("Processed = %d, want 573", w.eng.Processed)
		}
	})

	t.Run("satcom-drop-and-delivery-after-crash", func(t *testing.T) {
		w := newWorld(t, 2, false) // no mesh: commands go by satcom
		w.eng.Run(5)
		var whys []string
		onDrop := w.fe.sat.OnDrop
		w.fe.sat.OnDrop = func(m *satcom.Message, why string) {
			whys = append(whys, why)
			onDrop(m, why)
		}
		// No provider can meet a TTE 5 s out: the gateway drops the
		// first attempt, and the retry, with the satcom TTE, lands.
		var dones []bool
		w.fe.Send(Command{Node: nodeID(1), Kind: KindLinkEstablish, TTE: w.eng.Now() + 5}, func(ok bool) { dones = append(dones, ok) })
		w.eng.Run(w.eng.Now() + 1200)
		if len(whys) != 1 || whys[0] != "tte-infeasible" || len(dones) != 1 || !dones[0] || w.fe.Enactments[0].Attempts != 2 {
			t.Fatalf("drops %v, dones %v, enactments %+v; want one drop, then success on attempt 2", whys, dones, w.fe.Enactments)
		}
		// A second command is in flight over satcom when the frontend
		// crashes: it still reaches its agent, whose response finds no
		// one waiting.
		w.fe.Send(Command{Node: nodeID(2), Kind: KindDrain, TTE: w.fe.PickTTE([]string{nodeID(2)})}, func(ok bool) { dones = append(dones, ok) })
		w.eng.Run(w.eng.Now() + 1)
		w.fe.Crash()
		w.eng.Run(w.eng.Now() + 1200)
		if a := w.fe.node(w.fe.idx(nodeID(2))).agent; a.Enacted != 1 {
			t.Errorf("the in-flight satcom delivery must still reach its agent: enacted %d", a.Enacted)
		}
		if len(dones) != 1 || len(w.fe.Enactments) != 1 {
			t.Errorf("a crashed frontend acted: dones %v, enactments %d", dones, len(w.fe.Enactments))
		}
		if w.fe.sat.Sent != 2 || w.fe.sat.Delivered != 2 || w.fe.sat.Dropped != 1 {
			t.Errorf("satcom sent %d, delivered %d, dropped %d; want 2, 2, 1", w.fe.sat.Sent, w.fe.sat.Delivered, w.fe.sat.Dropped)
		}
		if w.eng.Processed != 9158 {
			t.Errorf("Processed = %d, want 9158", w.eng.Processed)
		}
	})
}
