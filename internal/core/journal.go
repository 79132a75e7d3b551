package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"minkowski/internal/intent"
	"minkowski/internal/radio"
)

// Journal is the controller's dispatch-time write-ahead record: a copy
// of every live link and route intent, updated at each state
// transition and dropped on terminal states. It models the durable
// store a production TS-SDN writes before actuating (§6 restart
// safety) — everything else in the controller is process memory and
// dies with a crash, but the journal survives and seeds
// reconciliation on restart.
//
// Every write is one row holding the intent by value, folded in by
// apply: a journaled intent shares no mutable state with the live
// store, so post-crash reads see exactly what was last journaled, not
// whatever the dying process mutated afterwards.
type Journal struct {
	links  map[radio.LinkID]intent.LinkIntent
	routes map[string]intent.RouteIntent
	// tail, when set, ships every row to the standby (Replicator.send).
	// Only the acting primary's journal has one.
	tail *Replicator
}

// rowOp is what a journal row does.
type rowOp uint8

const (
	recordLink rowOp = iota
	dropLink
	recordRoute
	dropRoute
)

// row is one journal write. A drop carries only its key: link.Link or
// route.ID. A recorded route's path is the journal's own copy and is
// never written again, so the standby may share it.
type row struct {
	op    rowOp
	link  intent.LinkIntent
	route intent.RouteIntent
	// dst is the standby journal a row in flight was sent to.
	dst *Journal
}

// NewJournal creates an empty journal.
func NewJournal() *Journal {
	return &Journal{
		links:  map[radio.LinkID]intent.LinkIntent{},
		routes: map[string]intent.RouteIntent{},
	}
}

// apply folds one row into the journal: the primary on write, the
// standby on arrival.
func (j *Journal) apply(r *row) {
	switch r.op {
	case recordLink:
		j.links[r.link.Link] = r.link
	case dropLink:
		delete(j.links, r.link.Link)
	case recordRoute:
		j.routes[r.route.ID] = r.route
	case dropRoute:
		delete(j.routes, r.route.ID)
	}
}

// write applies a row and ships it down the tail, if any.
func (j *Journal) write(r *row) {
	j.apply(r)
	if j.tail != nil {
		j.tail.send(r)
	}
}

// RecordLink journals the current state of a link intent.
func (j *Journal) RecordLink(li *intent.LinkIntent) { j.write(&row{op: recordLink, link: *li}) }

// DropLink removes a terminated link intent.
func (j *Journal) DropLink(id radio.LinkID) {
	j.write(&row{op: dropLink, link: intent.LinkIntent{Link: id}})
}

// HasLink reports whether the journal holds a record for this link —
// i.e. the controller durably knows it already dispatched work for it.
func (j *Journal) HasLink(id radio.LinkID) bool {
	_, ok := j.links[id]
	return ok
}

// RecordRoute journals the current state of a route intent, with its
// own copy of the path.
func (j *Journal) RecordRoute(ri *intent.RouteIntent) {
	r := row{op: recordRoute, route: *ri}
	r.route.Path = slices.Clone(ri.Path)
	j.write(&r)
}

// DropRoute removes a terminated route intent.
func (j *Journal) DropRoute(id string) {
	j.write(&row{op: dropRoute, route: intent.RouteIntent{ID: id}})
}

// Links returns journaled link intents sorted by link ID (restart
// reconciliation must iterate deterministically).
func (j *Journal) Links() []intent.LinkIntent {
	out := make([]intent.LinkIntent, 0, len(j.links))
	for _, li := range j.links {
		out = append(out, li)
	}
	slices.SortFunc(out, func(a, b intent.LinkIntent) int { return a.Link.Compare(b.Link) })
	return out
}

// Routes returns journaled route intents sorted by ID.
func (j *Journal) Routes() []intent.RouteIntent {
	out := make([]intent.RouteIntent, 0, len(j.routes))
	for _, ri := range j.routes {
		out = append(out, ri)
	}
	slices.SortFunc(out, func(a, b intent.RouteIntent) int { return strings.Compare(a.ID, b.ID) })
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
