package linkeval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"minkowski/internal/geo"
	"minkowski/internal/radio"
)

// TestCandidateGraphDeltaCrossValidation drives a drifting fleet
// through CandidateGraphDelta and cross-checks every emitted delta
// against a from-scratch map diff of the two graphs, and the graph
// itself against a twin evaluator's CandidateGraph.
func TestCandidateGraphDeltaCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nodes, xs := randomFleet(rng, 20)
	src := &gradientRain{}
	ev := New(DefaultConfig(), src, nil)
	twin := New(DefaultConfig(), src, nil)

	var prev []*Report
	for step := 0; step < 6; step++ {
		label := fmt.Sprintf("step%d", step)
		g, d := ev.CandidateGraphDelta(xs, 0)
		compareGraphs(t, label, g, twin.CandidateGraph(xs, 0))
		if step == 0 {
			if d.Valid {
				t.Fatalf("%s: first delta must be invalid (no baseline)", label)
			}
		} else {
			if !d.Valid {
				t.Fatalf("%s: delta invalid after a baseline exists", label)
			}
			// From-scratch diff of prev vs g.
			prevBy := make(map[radio.LinkID]Report, len(prev))
			for _, r := range prev {
				prevBy[r.ID] = *r
			}
			var added, removed, changed, unchanged int
			seen := make(map[radio.LinkID]bool, len(g))
			for _, r := range g {
				seen[r.ID] = true
				old, ok := prevBy[r.ID]
				switch {
				case !ok:
					added++
				case old == *r: //minkowski:floateq-ok delta identity: unchanged means bitwise-equal report
					unchanged++
				default:
					changed++
				}
			}
			for id := range prevBy {
				if !seen[id] {
					removed++
				}
			}
			if d.Added != added || d.Removed != removed || d.Changed != changed || d.Unchanged != unchanged {
				t.Fatalf("%s: delta %+v; recomputed add=%d rem=%d chg=%d unchg=%d",
					label, d, added, removed, changed, unchanged)
			}
			if len(d.AddedIDs) != added || len(d.RemovedIDs) != removed || len(d.ChangedIDs) != changed {
				t.Fatalf("%s: ID list lengths disagree with counts: %+v", label, d)
			}
		}
		// Snapshot prev by value before the next evaluation reuses
		// anything.
		prev = prev[:0]
		for _, r := range g {
			cp := *r
			prev = append(prev, &cp)
		}
		// Drift half the fleet: heavy overlap plus real churn.
		for i, n := range nodes {
			if i%2 == 0 {
				alt := n.Balloon.Pos.Alt
				n.Balloon.Pos = geo.Offset(n.Balloon.Pos, geo.Deg(rng.Float64()*360), 3000+5000*rng.Float64())
				n.Balloon.Pos.Alt = alt
			}
		}
		src.phase += 0.3
	}
}

// TestCandidateGraphDeltaChurnIsPartial guards the warm-solve premise:
// on a gently drifting fleet the per-cycle edge churn is a strict
// subset of the graph (if everything churned, warm solves would never
// reuse anything).
func TestCandidateGraphDeltaChurnIsPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nodes, xs := randomFleet(rng, 20)
	ev := New(DefaultConfig(), clearSky{}, nil)
	g, _ := ev.CandidateGraphDelta(xs, 0)
	if len(g) == 0 {
		t.Fatal("no candidates")
	}
	// One balloon moves; everyone else holds still.
	alt := nodes[0].Balloon.Pos.Alt
	nodes[0].Balloon.Pos = geo.Offset(nodes[0].Balloon.Pos, geo.Deg(45), 4000)
	nodes[0].Balloon.Pos.Alt = alt
	g2, d := ev.CandidateGraphDelta(xs, 0)
	if !d.Valid {
		t.Fatal("delta should be valid on the second emission")
	}
	if d.Churn() == 0 {
		t.Fatal("moving a balloon must churn its edges")
	}
	if d.Unchanged == 0 || d.Churn() >= len(g2) {
		t.Fatalf("churn must be partial: %+v over %d candidates", d, len(g2))
	}
	// LinkID components are transceiver IDs ("node/xcvr-N").
	moved := nodes[0].ID + "/"
	for _, id := range append(append([]radio.LinkID{}, d.AddedIDs...), d.ChangedIDs...) {
		if !strings.HasPrefix(id.A, moved) && !strings.HasPrefix(id.B, moved) {
			t.Fatalf("churned edge %v does not touch the moved balloon", id)
		}
	}
}

// TestShardedSweepWorkerInvariance pins the fan-out's contract: the
// sharded candidate sweep emits the oracle's graph byte for byte at any
// width, including across repeat calls on one evaluator whose scratch
// is reused while the width changes under it.
func TestShardedSweepWorkerInvariance(t *testing.T) {
	src := &gradientRain{}
	ev := New(DefaultConfig(), src, nil)
	atWidths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		nodes, xs := randomFleet(rng, 22)
		for step := 0; step < 4; step++ {
			compareGraphs(t, fmt.Sprintf("step%d", step), ev.CandidateGraph(xs, 0), bruteForceGraph(ev, xs, 0))
			for _, n := range nodes {
				alt := n.Balloon.Pos.Alt
				n.Balloon.Pos = geo.Offset(n.Balloon.Pos, geo.Deg(rng.Float64()*360), 1000+4000*rng.Float64())
				n.Balloon.Pos.Alt = alt
			}
			src.phase += 0.5
		}
	})
}

// TestEmptyGraphIsAValidBaseline: a first emission with zero
// candidates must still establish the delta baseline — the next call
// is a valid all-Added delta, not a silent re-cold-start (an empty
// snapshot must not be confused with no snapshot).
func TestEmptyGraphIsAValidBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	_, xs := randomFleet(rng, 10)
	ev := New(DefaultConfig(), clearSky{}, nil)
	if g, d := ev.CandidateGraphDelta(nil, 0); len(g) != 0 || d.Valid {
		t.Fatalf("first empty emission: got %d reports, valid=%v; want 0, false", len(g), d.Valid)
	}
	g, d := ev.CandidateGraphDelta(xs, 0)
	if len(g) == 0 {
		t.Fatal("fleet produced no candidates; scenario is vacuous")
	}
	if !d.Valid {
		t.Fatal("empty previous graph must still count as a baseline")
	}
	if d.Added != len(g) || d.Removed != 0 || d.Changed != 0 || d.Unchanged != 0 {
		t.Fatalf("delta vs empty baseline should be all-Added: %+v", d)
	}
	// And back down to empty: everything Removed, still valid.
	if g2, d2 := ev.CandidateGraphDelta(nil, 0); len(g2) != 0 || !d2.Valid || d2.Removed != len(g) {
		t.Fatalf("delta down to empty: got %d reports, %+v", len(g2), d2)
	}
	// The shrunk baseline must not keep the departed transceivers alive.
	for i, r := range ev.last[:cap(ev.last)] {
		if r.XA != nil || r.XB != nil {
			t.Fatalf("baseline slot %d still pins %v after the graph emptied", i, r.ID)
		}
	}
}
