package core

import (
	"testing"

	"minkowski/internal/intent"
	"minkowski/internal/radio"
	"minkowski/internal/sim"
)

// TestJournalDeepCopyIsolation is the property the journal's crash
// semantics depend on: RecordLink/RecordRoute must journal the intent
// by value, path included, so mutating the live intent after recording
// cannot change the journaled entry. A shared path here would let the
// dying process rewrite history.
func TestJournalDeepCopyIsolation(t *testing.T) {
	j := NewJournal()

	li := &intent.LinkIntent{
		ID:    42,
		Link:  radio.MakeLinkID("a/xcvr-0", "b/xcvr-1"),
		XA:    "a/xcvr-0",
		XB:    "b/xcvr-1",
		NodeA: "a", NodeB: "b",
		State:       intent.LinkCommanded,
		CreatedAt:   10,
		CommandedAt: 11,
		Attempts:    1,
	}
	j.RecordLink(li)
	ri := &intent.RouteIntent{
		ID:         "backhaul/a",
		Path:       []string{"a", "b", "gs-nairobi"},
		Generation: 1,
		State:      intent.RoutePending,
		CreatedAt:  12,
	}
	j.RecordRoute(ri)

	// Mutate the live intents the way the controller does on the next
	// state transition.
	li.State = intent.LinkEstablished
	li.EstablishedAt = 99
	li.Attempts = 7
	ri.State = intent.RouteProgrammed
	ri.Generation = 5
	ri.Path[1] = "MUTATED"
	ri.Path = append(ri.Path, "EXTRA")

	jl := j.Links()
	if len(jl) != 1 {
		t.Fatalf("journaled links = %d, want 1", len(jl))
	}
	if jl[0].State != intent.LinkCommanded || jl[0].EstablishedAt != 0 || jl[0].Attempts != 1 {
		t.Errorf("journaled link mutated through the live intent: %+v", jl[0])
	}
	jr := j.Routes()
	if len(jr) != 1 {
		t.Fatalf("journaled routes = %d, want 1", len(jr))
	}
	if jr[0].State != intent.RoutePending || jr[0].Generation != 1 {
		t.Errorf("journaled route mutated through the live intent: %+v", jr[0])
	}
	if len(jr[0].Path) != 3 || jr[0].Path[1] != "b" {
		t.Errorf("journaled route path shares backing store with the live intent: %v", jr[0].Path)
	}
}

// TestReplicatorPayloadIsolation pushes the same property one hop
// further: a row crosses the stream's asynchronous boundary by value,
// so mutating the live intent, or re-recording it on the same key,
// while the row is in flight cannot corrupt what lands at the standby.
func TestReplicatorPayloadIsolation(t *testing.T) {
	eng := sim.New(1)
	r := NewReplicator(eng)
	primary := NewJournal()
	r.Bootstrap(primary, 1)

	li := &intent.LinkIntent{
		ID:        7,
		Link:      radio.MakeLinkID("a/x0", "b/x1"),
		State:     intent.LinkCommanded,
		CreatedAt: 1,
	}
	primary.RecordLink(li)
	// Mutate the live intent while the event is in flight.
	li.State = intent.LinkFailed
	li.Attempts = 3
	eng.Run(1)

	got := r.StandbyJournal().Links()
	if len(got) != 1 {
		t.Fatalf("standby links = %d, want 1", len(got))
	}
	if got[0].State != intent.LinkCommanded || got[0].Attempts != 0 {
		t.Errorf("standby copy mutated through the live intent: %+v", got[0])
	}
	if r.Applied != 1 {
		t.Errorf("Applied = %d, want 1", r.Applied)
	}
	if primary.Digest() == r.StandbyJournal().Digest() {
		t.Log("digests equal (expected: primary mutation happened on the live intent, not the journal)")
	}
	// Re-record the mutated intent; after the delay the standby must
	// converge to the primary's journal exactly.
	primary.RecordLink(li)
	eng.Run(2)
	if a, s := primary.Digest(), r.StandbyJournal().Digest(); a != s {
		t.Errorf("digests diverge after stream drain: primary=%x standby=%x", a, s)
	}
}

// TestInFlightRowsDropOnSeatChange: rows still on the wire when the
// stream disconnects, the standby dies with the primary (Reset) or a
// promotion takes the standby's journal are counted as dropped on
// arrival, and none reaches the journal that takes the seat next (nor
// the taken one).
func TestInFlightRowsDropOnSeatChange(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(r *Replicator) *Journal // returns the journal that left the seat
	}{
		{"disconnect", func(r *Replicator) *Journal { r.Disconnect(); return r.StandbyJournal() }},
		{"reset", func(r *Replicator) *Journal { old := r.StandbyJournal(); r.Reset(); return old }},
		{"take", func(r *Replicator) *Journal { j, _ := r.TakeStandbyJournal(); return j }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(1)
			r := NewReplicator(eng)
			primary := NewJournal()
			r.Bootstrap(primary, 1)
			id := radio.MakeLinkID("a/x0", "b/x1")
			primary.RecordLink(&intent.LinkIntent{ID: 1, Link: id, State: intent.LinkCommanded})
			primary.RecordRoute(&intent.RouteIntent{ID: "r1", Path: []string{"a", "b"}})
			primary.DropLink(id)
			if r.InFlight() != 3 || r.Published != 3 {
				t.Fatalf("in flight %d, published %d; want 3, 3", r.InFlight(), r.Published)
			}
			left := tc.change(r)
			// A fresh primary re-seeds the seat before the rows arrive.
			r.Bootstrap(NewJournal(), 2)
			eng.Run(1)
			if r.InFlight() != 0 || r.DroppedDisconnected != 3 || r.Applied != 0 {
				t.Errorf("in flight %d, dropped %d, applied %d; want 0, 3, 0",
					r.InFlight(), r.DroppedDisconnected, r.Applied)
			}
			for _, j := range []*Journal{r.StandbyJournal(), left} {
				if len(j.Links()) != 0 || len(j.Routes()) != 0 {
					t.Errorf("a row in flight across the seat change landed: links %v, routes %v", j.Links(), j.Routes())
				}
			}
		})
	}
}
