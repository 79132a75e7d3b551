package manet

import (
	"sort"

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
	eng *sim.Engine
	net Network
	cfg DSDVConfig

	nodes map[string]*dsdvNode
	stats Stats
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
	nextHop string
	hops    int
	seqno   uint64
	heardAt float64
}

type dsdvNode struct {
	id     string
	seqno  uint64
	routes map[string]*dsdvRoute
}

// NewDSDV creates the protocol.
func NewDSDV(eng *sim.Engine, net Network, cfg DSDVConfig) *DSDV {
	return &DSDV{eng: eng, net: net, cfg: cfg, nodes: make(map[string]*dsdvNode)}
}

// Name implements Router.
func (d *DSDV) Name() string { return "dsdv" }

// Stats implements Router.
func (d *DSDV) Stats() Stats { return d.stats }

func (d *DSDV) node(id string) *dsdvNode {
	n, ok := d.nodes[id]
	if !ok {
		n = &dsdvNode{id: id, routes: make(map[string]*dsdvRoute)}
		d.nodes[id] = n
	}
	return n
}

// advEntry is one row of a table advertisement.
type advEntry struct {
	dst   string
	hops  int
	seqno uint64
}

// Start implements Router: periodic full-table broadcasts.
func (d *DSDV) Start() {
	d.eng.Every(d.cfg.UpdateIntervalS, func() bool {
		now := d.eng.Now()
		for _, id := range d.net.Nodes() {
			n := d.node(id)
			n.seqno += 2 // even seqnos: destination-generated
			// Expire dead routes first.
			for dst, r := range n.routes {
				if now-r.heardAt > d.cfg.RouteLifetimeS || !d.net.Adjacent(id, r.nextHop) {
					delete(n.routes, dst)
				}
			}
			// Build the advertisement: self + all known routes, in
			// sorted destination order so the wire layout (and any
			// receiver tie-break) is independent of map iteration.
			dsts := make([]string, 0, len(n.routes))
			for dst := range n.routes {
				dsts = append(dsts, dst)
			}
			sort.Strings(dsts)
			adv := []advEntry{{dst: id, hops: 0, seqno: n.seqno}}
			for _, dst := range dsts {
				r := n.routes[dst]
				adv = append(adv, advEntry{dst: dst, hops: r.hops, seqno: r.seqno})
			}
			size := d.cfg.HeaderBytes + d.cfg.EntryBytes*len(adv)
			for _, nb := range d.net.Neighbors(id) {
				nb := nb
				advCopy := make([]advEntry, len(adv))
				copy(advCopy, adv)
				d.stats.MessagesSent++
				d.stats.BytesSent += int64(size)
				deliver(d.eng, d.net, d.cfg.LossProb, id, nb, func() {
					if !d.net.Adjacent(nb, id) {
						return
					}
					d.receive(nb, id, advCopy)
				})
			}
		}
		return true
	})
}

// receive merges a neighbor's advertisement.
func (d *DSDV) receive(at, via string, adv []advEntry) {
	n := d.node(at)
	now := d.eng.Now()
	for _, e := range adv {
		if e.dst == at {
			continue
		}
		cand := &dsdvRoute{nextHop: via, hops: e.hops + 1, seqno: e.seqno, heardAt: now}
		cur := n.routes[e.dst]
		if cur == nil || e.seqno > cur.seqno || (e.seqno == cur.seqno && cand.hops < cur.hops) {
			n.routes[e.dst] = cand
		} else if cur.nextHop == via && e.seqno >= cur.seqno {
			cur.heardAt = now
		}
	}
}

// NextHop implements Router.
func (d *DSDV) NextHop(src, dst string) (string, bool) {
	n, ok := d.nodes[src]
	if !ok {
		return "", false
	}
	r, ok := n.routes[dst]
	if !ok {
		return "", false
	}
	if !d.net.Adjacent(src, r.nextHop) {
		return "", false
	}
	return r.nextHop, true
}
