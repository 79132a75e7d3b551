package core

import (
	"maps"

	"minkowski/internal/sim"
)

// Replicator is the primary → standby journal stream. The acting
// primary's journal tails every row it writes into the stream, and the
// warm standby's journal applies each row replDelayS later (one-way
// datacenter-to-datacenter latency). The standby therefore trails the
// primary by at most that delay plus whatever is in flight, and a
// promotion reconciles from that slightly-stale snapshot exactly the
// way a crash-restart reconciles from the durable journal.
type Replicator struct {
	eng *sim.Engine

	connected bool
	standby   *Journal
	// standbyEpoch is the acting primary's epoch when the standby's
	// snapshot was bootstrapped.
	standbyEpoch uint64

	// q is a ring of the rows in flight, oldest at q[head]. Rows arrive
	// in send order, since every one is delayed by the same replDelayS,
	// so one event per row pops them.
	q       []row
	head, n int
	arrival func() // arrive, bound once

	// Published / Applied / DroppedDisconnected count stream traffic:
	// rows entering the stream, rows applied to the standby, and rows
	// discarded because the stream was down (partition) or the standby
	// seat changed hands mid-flight.
	Published, Applied, DroppedDisconnected int
}

// NewReplicator creates a disconnected replicator; Bootstrap attaches
// a standby.
func NewReplicator(eng *sim.Engine) *Replicator {
	r := &Replicator{eng: eng, standby: NewJournal()}
	r.arrival = r.arrive
	return r
}

// Bootstrap (re)seeds the standby seat with a snapshot of the acting
// journal at the given epoch, connects the stream and makes it the
// acting journal's tail.
func (r *Replicator) Bootstrap(acting *Journal, epoch uint64) {
	r.standby = &Journal{links: maps.Clone(acting.links), routes: maps.Clone(acting.routes)}
	r.standbyEpoch = epoch
	r.connected = true
	acting.tail = r
}

// Disconnect severs the stream (controller partition): subsequent
// rows are dropped, and rows already in flight are discarded on
// arrival.
func (r *Replicator) Disconnect() { r.connected = false }

// Reset models a total outage taking the standby replica down with the
// primary: the stream disconnects and the standby's journal memory is
// gone.
func (r *Replicator) Reset() {
	r.connected = false
	r.standby = NewJournal()
	r.standbyEpoch = 0
}

// TakeStandbyJournal hands the standby's journal to a promoting
// replica and leaves an empty, disconnected seat behind (the new
// primary has no standby until the old one rejoins).
func (r *Replicator) TakeStandbyJournal() (*Journal, uint64) {
	j, ep := r.standby, r.standbyEpoch
	r.Reset()
	return j, ep
}

// Connected reports whether the stream is attached.
func (r *Replicator) Connected() bool { return r.connected }

// InFlight reports rows sent but not yet applied or dropped.
func (r *Replicator) InFlight() int { return r.n }

// StandbyJournal exposes the standby's journal copy (tests, digests).
func (r *Replicator) StandbyJournal() *Journal { return r.standby }

// send ships one row down the stream, addressed to the current standby
// journal: if the seat changes hands while the row is in flight (a
// promotion took the journal), the row is dropped rather than applied
// to a journal someone else now owns.
func (r *Replicator) send(w *row) {
	if !r.connected {
		r.DroppedDisconnected++
		return
	}
	r.Published++
	if r.n == len(r.q) { // full: grow, oldest first
		q := make([]row, max(16, 2*len(r.q)))
		copy(q, r.q[r.head:])
		copy(q[len(r.q)-r.head:], r.q[:r.head])
		r.q, r.head = q, 0
	}
	w.dst = r.standby
	r.q[(r.head+r.n)%len(r.q)] = *w
	r.n++
	r.eng.After(replDelayS, r.arrival)
}

// arrive applies the oldest row in flight, or drops it when the
// stream is down or the seat changed hands.
func (r *Replicator) arrive() {
	f := &r.q[r.head]
	r.head = (r.head + 1) % len(r.q)
	r.n--
	if !r.connected || r.standby != f.dst {
		r.DroppedDisconnected++
	} else {
		r.Applied++
		f.dst.apply(f)
	}
	*f = row{} // let go of the path and the journal
}
