package core

import (
	"fmt"
	"hash/fnv"
	"sort"

	"minkowski/internal/intent"
	"minkowski/internal/radio"
)

// JournalSink observes journal mutations. Payloads handed to a sink
// are the journal's own deep copies — a sink that retains them (the
// replication stream does) must clone again before crossing an
// asynchronous boundary.
type JournalSink interface {
	LinkWritten(li *intent.LinkIntent)
	LinkDropped(id radio.LinkID)
	RouteWritten(ri *intent.RouteIntent)
	RouteDropped(id string)
}

// Journal is the controller's dispatch-time write-ahead record: a copy
// of every live link and route intent, updated at each state
// transition and dropped on terminal states. It models the durable
// store a production TS-SDN writes before actuating (§6 restart
// safety) — everything else in the controller is process memory and
// dies with a crash, but the journal survives and seeds
// reconciliation on restart.
//
// Entries are deep-enough copies: a journaled intent shares no mutable
// state with the live store, so post-crash reads see exactly what was
// last journaled, not whatever the dying process mutated afterwards.
type Journal struct {
	links  map[radio.LinkID]*intent.LinkIntent
	routes map[string]*intent.RouteIntent
	// Sink, when set, observes every mutation — the tap the standby
	// replication stream rides. The standby's own journal has no sink.
	Sink JournalSink
}

// NewJournal creates an empty journal.
func NewJournal() *Journal {
	return &Journal{
		links:  map[radio.LinkID]*intent.LinkIntent{},
		routes: map[string]*intent.RouteIntent{},
	}
}

// RecordLink journals the current state of a link intent.
func (j *Journal) RecordLink(li *intent.LinkIntent) {
	if li == nil {
		return
	}
	cp := li.Clone()
	j.links[li.Link] = cp
	if j.Sink != nil {
		j.Sink.LinkWritten(cp)
	}
}

// DropLink removes a terminated link intent.
func (j *Journal) DropLink(id radio.LinkID) {
	delete(j.links, id)
	if j.Sink != nil {
		j.Sink.LinkDropped(id)
	}
}

// HasLink reports whether the journal holds a record for this link —
// i.e. the controller durably knows it already dispatched work for it.
func (j *Journal) HasLink(id radio.LinkID) bool {
	_, ok := j.links[id]
	return ok
}

// RecordRoute journals the current state of a route intent.
func (j *Journal) RecordRoute(ri *intent.RouteIntent) {
	if ri == nil {
		return
	}
	cp := ri.Clone()
	j.routes[ri.ID] = cp
	if j.Sink != nil {
		j.Sink.RouteWritten(cp)
	}
}

// DropRoute removes a terminated route intent.
func (j *Journal) DropRoute(id string) {
	delete(j.routes, id)
	if j.Sink != nil {
		j.Sink.RouteDropped(id)
	}
}

// Links returns journaled link intents sorted by link ID (restart
// reconciliation must iterate deterministically).
func (j *Journal) Links() []*intent.LinkIntent {
	out := make([]*intent.LinkIntent, 0, len(j.links))
	for _, li := range j.links {
		out = append(out, li)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Link.A != out[k].Link.A {
			return out[i].Link.A < out[k].Link.A
		}
		return out[i].Link.B < out[k].Link.B
	})
	return out
}

// Routes returns journaled route intents sorted by ID.
func (j *Journal) Routes() []*intent.RouteIntent {
	out := make([]*intent.RouteIntent, 0, len(j.routes))
	for _, ri := range j.routes {
		out = append(out, ri)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Clone deep-copies the journal's contents (sink and write counter
// excluded) — the bootstrap snapshot a standby starts tailing from.
func (j *Journal) Clone() *Journal {
	out := NewJournal()
	for id, li := range j.links {
		out.links[id] = li.Clone()
	}
	for id, ri := range j.routes {
		out.routes[id] = ri.Clone()
	}
	return out
}

// Digest hashes the journal's semantic content in deterministic order,
// so primary/standby convergence is a single comparison.
func (j *Journal) Digest() uint64 {
	h := fnv.New64a()
	for _, li := range j.Links() {
		fmt.Fprintf(h, "l %s %d %d %d %.3f %.3f %.3f\n",
			li.Link, li.ID, int(li.State), li.Attempts,
			li.CreatedAt, li.CommandedAt, li.EstablishedAt)
	}
	for _, ri := range j.Routes() {
		fmt.Fprintf(h, "r %s %d %d %v %.3f\n",
			ri.ID, ri.Generation, int(ri.State), ri.Path, ri.CreatedAt)
	}
	return h.Sum64()
}
