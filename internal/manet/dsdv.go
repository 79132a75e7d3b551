package manet

import (
	"minkowski/internal/sim"
)

// DSDV is Destination-Sequenced Distance-Vector routing [Perkins &
// Bhagwat]: every node periodically broadcasts its full routing table
// with per-destination sequence numbers; receivers adopt routes with
// newer sequence numbers or equal-sequence shorter hop counts.
// Appendix D found DSDV converged well but carried more overhead than
// AODV because it builds routes between *all* pairs, which Loon did
// not need.
type DSDV struct {
	proto
	cfg   DSDVConfig
	nodes []dsdvNode // by node index
}

// DSDVConfig tunes the protocol.
type DSDVConfig struct {
	// UpdateIntervalS is the full-table broadcast period.
	UpdateIntervalS float64
	// RouteLifetimeS expires routes not refreshed.
	RouteLifetimeS float64
	// LossProb is per-hop control loss.
	LossProb float64
	// HeaderBytes + EntryBytes·n is the update size.
	HeaderBytes, EntryBytes int
}

// DefaultDSDVConfig returns conventional parameters.
func DefaultDSDVConfig() DSDVConfig {
	return DSDVConfig{
		UpdateIntervalS: 2.0,
		RouteLifetimeS:  8.0,
		LossProb:        0.01,
		HeaderBytes:     12,
		EntryBytes:      12,
	}
}

type dsdvRoute struct {
	nextHop int32 // -1: no route
	hops    int
	seqno   uint64
	heardAt float64
}

type dsdvNode struct {
	seqno  uint64
	routes []dsdvRoute // by destination
}

// NewDSDV creates the protocol.
func NewDSDV(eng *sim.Engine, net Network, cfg DSDVConfig) *DSDV {
	d := &DSDV{cfg: cfg}
	d.proto = proto{eng: eng, net: net, loss: cfg.LossProb, resize: d.resize}
	return d
}

// Name implements Router.
func (d *DSDV) Name() string { return "dsdv" }

func (d *DSDV) resize(dim int) {
	d.nodes = extend(d.nodes, dim, dsdvNode{})
	for i := range d.nodes {
		d.nodes[i].routes = extend(d.nodes[i].routes, dim, dsdvRoute{nextHop: -1})
	}
}

// advEntry is one row of a table advertisement.
type advEntry struct {
	dst   int32
	hops  int
	seqno uint64
}

// Start implements Router: periodic full-table broadcasts.
func (d *DSDV) Start() {
	d.every(d.cfg.UpdateIntervalS, func(nodes []int32) {
		now := d.eng.Now()
		for _, id := range nodes {
			n := &d.nodes[id]
			n.seqno += 2 // even seqnos: destination-generated
			// The advertisement: self + every known route, dead routes
			// expired first. A receiver merges each row on its own, so
			// their order does not matter.
			adv := []advEntry{{dst: id, hops: 0, seqno: n.seqno}}
			for dst, r := range n.routes {
				if r.nextHop < 0 {
					continue
				}
				if now-r.heardAt > d.cfg.RouteLifetimeS || !d.net.AdjacentAt(id, r.nextHop) {
					n.routes[dst].nextHop = -1
					continue
				}
				adv = append(adv, advEntry{dst: int32(dst), hops: r.hops, seqno: r.seqno})
			}
			size := d.cfg.HeaderBytes + d.cfg.EntryBytes*len(adv)
			for _, nb := range d.net.NeighborsAt(id) {
				d.send(size, id, nb, func() { d.receive(nb, id, adv) })
			}
		}
	})
}

// receive merges a neighbor's advertisement.
func (d *DSDV) receive(at, via int32, adv []advEntry) {
	routes := d.nodes[at].routes
	now := d.eng.Now()
	for _, e := range adv {
		if e.dst == at {
			continue
		}
		cur := &routes[e.dst]
		if cur.nextHop < 0 || e.seqno > cur.seqno || (e.seqno == cur.seqno && e.hops+1 < cur.hops) {
			*cur = dsdvRoute{nextHop: via, hops: e.hops + 1, seqno: e.seqno, heardAt: now}
		} else if cur.nextHop == via && e.seqno >= cur.seqno {
			cur.heardAt = now
		}
	}
}

// NextHopAt implements Router: the next hop must still be adjacent.
func (d *DSDV) NextHopAt(src, dst int32) (int32, bool) {
	if !d.known(src, dst) {
		return -1, false
	}
	nh := d.nodes[src].routes[dst].nextHop
	if nh < 0 || !d.net.AdjacentAt(src, nh) {
		return -1, false
	}
	return nh, true
}
