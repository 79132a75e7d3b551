package core

import (
	"minkowski/internal/intent"
	"minkowski/internal/radio"
	"minkowski/internal/sim"
)

// Replicator is the primary → standby journal stream. It taps the
// acting primary's journal (as its JournalSink) and applies each
// mutation to the warm standby's journal copy after a one-way
// datacenter-to-datacenter delay. The standby therefore trails the
// primary by at most DelayS plus whatever is in flight, and a
// promotion reconciles from that slightly-stale snapshot exactly the
// way a crash-restart reconciles from the durable journal.
type Replicator struct {
	eng *sim.Engine
	// DelayS is the one-way stream latency.
	DelayS float64

	connected bool
	standby   *Journal
	// standbyEpoch is the acting primary's epoch when the standby's
	// snapshot was bootstrapped.
	standbyEpoch uint64
	inflight     int

	// Published / Applied / DroppedDisconnected count stream traffic:
	// mutations entering the stream, mutations applied to the standby,
	// and mutations discarded because the stream was down (partition)
	// or the standby seat changed hands mid-flight.
	Published, Applied, DroppedDisconnected int
}

// NewReplicator creates a disconnected replicator; Bootstrap attaches
// a standby.
func NewReplicator(eng *sim.Engine, delayS float64) *Replicator {
	return &Replicator{eng: eng, DelayS: delayS, standby: NewJournal()}
}

// Bootstrap (re)seeds the standby seat with a snapshot of the acting
// journal at the given epoch and connects the stream.
func (r *Replicator) Bootstrap(acting *Journal, epoch uint64) {
	r.standby = acting.Clone()
	r.standbyEpoch = epoch
	r.connected = true
}

// Disconnect severs the stream (controller partition): subsequent
// publishes are dropped, and events already in flight are discarded on
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
	r.standby = NewJournal()
	r.standbyEpoch = 0
	r.connected = false
	return j, ep
}

// Connected reports whether the stream is attached.
func (r *Replicator) Connected() bool { return r.connected }

// InFlight reports mutations published but not yet applied or dropped.
func (r *Replicator) InFlight() int { return r.inflight }

// StandbyJournal exposes the standby's journal copy (tests, digests).
func (r *Replicator) StandbyJournal() *Journal { return r.standby }

// send ships one mutation down the stream. The destination journal is
// captured at send time: if the standby seat changes hands while the
// event is in flight (a promotion took the journal), the event is
// dropped rather than applied to a journal someone else now owns.
func (r *Replicator) send(apply func(dst *Journal)) {
	if !r.connected {
		r.DroppedDisconnected++
		return
	}
	r.Published++
	r.inflight++
	dst := r.standby
	r.eng.After(r.DelayS, func() {
		r.inflight--
		if !r.connected || r.standby != dst {
			r.DroppedDisconnected++
			return
		}
		r.Applied++
		apply(dst)
	})
}

// JournalSink implementation. Payloads arriving from the journal are
// its own copies, but they are cloned again before crossing the
// asynchronous stream boundary — the journal is free to mutate its
// copy (re-record) while an event is in flight.

// LinkWritten replicates a link-intent write.
func (r *Replicator) LinkWritten(li *intent.LinkIntent) {
	cp := li.Clone()
	r.send(func(dst *Journal) { dst.RecordLink(cp) })
}

// LinkDropped replicates a link-intent drop.
func (r *Replicator) LinkDropped(id radio.LinkID) {
	r.send(func(dst *Journal) { dst.DropLink(id) })
}

// RouteWritten replicates a route-intent write.
func (r *Replicator) RouteWritten(ri *intent.RouteIntent) {
	cp := ri.Clone()
	r.send(func(dst *Journal) { dst.RecordRoute(cp) })
}

// RouteDropped replicates a route-intent drop.
func (r *Replicator) RouteDropped(id string) {
	r.send(func(dst *Journal) { dst.DropRoute(id) })
}
