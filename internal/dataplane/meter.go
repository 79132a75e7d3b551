package dataplane

// DeliveryMeter aggregates synthetic end-to-end delivery probes into
// the loss accounting behind the inv-dataplane-delivery invariant.
//
// The embedding controller probes each declared backhaul route on a
// fixed cadence and classifies the attempt:
//
//   - delivered: the programmed next-hop chain walks from source to
//     destination over live, non-deaf fabric links.
//   - reachable: ground truth — SOME path exists from the source to a
//     live gateway over the current mesh, and the programmed path is
//     not silenced by a deafened direction (partition oracle).
//   - controllable: the control plane was in a position to repair the
//     route (controller up, solver up, acting replica's command path
//     not deafened) and believed the route healthy — a route it
//     already knows is broken is being repaired, not misprogrammed.
//
// The invariant the meter supports is the paper's bounded-loss claim:
// traffic whose endpoints stayed mutually reachable must not stay
// undelivered longer than a grace window while the control plane was
// able to act. Per route the meter keeps an outage clock that
//
//   - ACCUMULATES while the route is reachable, undelivered, and
//     controllable (this is real, repairable loss),
//   - FREEZES while the control plane is excused (crash, solver
//     outage, command-path deafness — the clock neither grows nor
//     forgives), and
//   - RESETS on delivery or on genuine unreachability (a partitioned
//     endpoint owes nothing until the mesh heals).
//
// Counters conserve by construction: Injected == Delivered + Dropped,
// and Dropped partitions into the three excuse classes plus
// LostBeyondGrace.
type DeliveryMeter struct {
	// GraceS is the repair allowance: a route may sit reachable-but-
	// undelivered for up to GraceS accumulated controllable seconds
	// before further drops count as lost.
	GraceS float64

	// Injected counts probe packets offered (one per route per probe).
	Injected int
	// Delivered counts probes that walked the programmed chain to the
	// destination.
	Delivered int
	// Dropped counts probes that did not (== sum of the four classes
	// below).
	Dropped int

	// DroppedUnreachable: the source had no path to any live gateway —
	// a genuine partition, excused.
	DroppedUnreachable int
	// DroppedUncontrollable: a path existed but the control plane was
	// in no position to program it — excused, clock frozen.
	DroppedUncontrollable int
	// DroppedInGrace: repairable loss still inside the grace window.
	DroppedInGrace int
	// LostBeyondGrace: repairable loss past the grace window — the
	// bounded-loss violation counter.
	LostBeyondGrace int

	// MaxOutageS is the worst accumulated controllable outage any
	// route reached; MaxOutageS/GraceS is the invariant's distance to
	// violation.
	MaxOutageS float64

	// outageS is the per-route accumulated controllable outage clock.
	outageS map[string]float64
}

// NewDeliveryMeter creates a meter with the given grace window.
func NewDeliveryMeter(graceS float64) *DeliveryMeter {
	return &DeliveryMeter{GraceS: graceS, outageS: make(map[string]float64)}
}

// Record classifies one probe for routeID. dt is the probe cadence in
// seconds — the outage clock advances by dt per undelivered
// controllable probe, so a cadence coarser than the grace window would
// make the bound vacuous.
func (m *DeliveryMeter) Record(routeID string, dt float64, delivered, reachable, controllable bool) {
	m.Injected++
	if delivered {
		m.Delivered++
		delete(m.outageS, routeID)
		return
	}
	m.Dropped++
	switch {
	case !reachable:
		m.DroppedUnreachable++
		delete(m.outageS, routeID)
	case !controllable:
		m.DroppedUncontrollable++
		// Clock frozen: neither accumulate nor forgive.
	default:
		o := m.outageS[routeID] + dt
		m.outageS[routeID] = o
		if o > m.MaxOutageS {
			m.MaxOutageS = o
		}
		if o > m.GraceS {
			m.LostBeyondGrace++
		} else {
			m.DroppedInGrace++
		}
	}
}

// Clear forgets routeID's outage clock (the route was released; a
// later route reusing the ID starts fresh).
func (m *DeliveryMeter) Clear(routeID string) { delete(m.outageS, routeID) }
