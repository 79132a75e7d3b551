package linkeval

// Candidate-edge delta emission: CandidateGraphDelta wraps
// CandidateGraph and reports exactly which link IDs appeared,
// disappeared, or changed any report field since the previous call —
// the controller's solve loop uses it for telemetry (the edge_churn
// span attribute and solve-log field).

import (
	"minkowski/internal/platform"
	"minkowski/internal/radio"
)

// EdgeDelta is the difference between two consecutive candidate
// graphs, by link identity and report content.
type EdgeDelta struct {
	// Valid is false on the first emission (no previous graph to
	// diff against).
	Valid bool
	// Added / Removed / Changed / Unchanged count link IDs new since
	// the previous graph, gone from it, present in both with any
	// report field different, and present in both and identical.
	Added, Removed, Changed, Unchanged int
	// AddedIDs / RemovedIDs / ChangedIDs list the affected links in
	// ID order.
	AddedIDs, RemovedIDs, ChangedIDs []radio.LinkID
}

// Churn is added+removed+changed — the number of edges a consumer
// must reconsider.
func (d EdgeDelta) Churn() int { return d.Added + d.Removed + d.Changed }

func idLess(a, b radio.LinkID) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// sameReport compares every field of two report snapshots. Pointer
// fields (the transceivers) compare by identity: a re-created
// transceiver object is conservatively "changed".
func sameReport(a, b *Report) bool {
	//minkowski:floateq-ok delta identity: "unchanged" is defined as the exact report the previous graph emitted, bit for bit
	return *a == *b
}

// CandidateGraphDelta evaluates the candidate graph exactly like
// CandidateGraph and additionally returns the edge delta versus the
// previous CandidateGraphDelta call. The graph itself is byte-for-byte
// what CandidateGraph would have returned.
func (e *Evaluator) CandidateGraphDelta(xcvrs []*platform.Transceiver, lead float64) ([]*Report, EdgeDelta) {
	g := e.CandidateGraph(xcvrs, lead)
	var d EdgeDelta
	if e.haveLast {
		d.Valid = true
		// Two-pointer merge: both sides are ID-sorted (CandidateGraph's
		// output contract; e.last is a snapshot of a previous output).
		i, j := 0, 0
		for i < len(e.last) || j < len(g) {
			switch {
			case j >= len(g) || (i < len(e.last) && idLess(e.last[i].ID, g[j].ID)):
				d.Removed++
				d.RemovedIDs = append(d.RemovedIDs, e.last[i].ID)
				i++
			case i >= len(e.last) || idLess(g[j].ID, e.last[i].ID):
				d.Added++
				d.AddedIDs = append(d.AddedIDs, g[j].ID)
				j++
			default:
				if sameReport(&e.last[i], g[j]) {
					d.Unchanged++
				} else {
					d.Changed++
					d.ChangedIDs = append(d.ChangedIDs, g[j].ID)
				}
				i++
				j++
			}
		}
	}
	// Snapshot by value: a consumer mutating the returned reports
	// cannot alias into the recorded previous graph.
	if cap(e.last) < len(g) {
		e.last = make([]Report, len(g))
	}
	// A shorter graph must not leave the departed platforms'
	// transceivers pinned by the tail of the backing array.
	if len(g) < len(e.last) {
		clear(e.last[len(g):])
	}
	e.last = e.last[:len(g)]
	for k, r := range g {
		e.last[k] = *r
	}
	e.haveLast = true
	return g, d
}
