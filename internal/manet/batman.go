package manet

import (
	"minkowski/internal/sim"
)

// BATMAN is a batman-adv-style proactive distance-vector protocol:
// every node periodically floods an Originator Message (OGM); each
// receiver remembers which neighbor delivered the best (freshest,
// highest transmit-quality) copy of each originator's OGM and uses
// that neighbor as the next hop toward the originator. Routing "toward
// the best copy of your beacon" is loop-free and repairs as soon as
// the next beacon arrives over a surviving path — the property that
// let Loon's in-band control plane out-repair the datacenter TS-SDN.
type BATMAN struct {
	proto
	cfg   BATMANConfig
	nodes []batmanNode // by node index
}

// BATMANConfig tunes the protocol.
type BATMANConfig struct {
	// OGMIntervalS is the beacon period (batman-adv default: 1 s).
	OGMIntervalS float64
	// PurgeAfterS expires a route whose originator hasn't been heard.
	PurgeAfterS float64
	// HopPenalty multiplies TQ per hop (0..1).
	HopPenalty float64
	// LossProb is the per-hop control-message loss probability.
	LossProb float64
	// OGMBytes is the on-the-wire OGM size (batman-adv IV: ~24 bytes
	// + ethernet framing).
	OGMBytes int
}

// DefaultBATMANConfig matches batman-adv defaults.
func DefaultBATMANConfig() BATMANConfig {
	return BATMANConfig{
		OGMIntervalS: 1.0,
		PurgeAfterS:  5.0,
		HopPenalty:   0.85,
		LossProb:     0.01,
		OGMBytes:     52,
	}
}

type batmanRoute struct {
	nextHop int32 // -1: no route
	tq      float64
	seqno   uint64
	heardAt float64
}

type batmanNode struct {
	seqno uint64
	// routes[originator] is the best-known route.
	routes []batmanRoute
	// seen[originator] is the highest seqno rebroadcast (flood
	// suppression).
	seen []uint64
}

// NewBATMAN creates the protocol over a network.
func NewBATMAN(eng *sim.Engine, net Network, cfg BATMANConfig) *BATMAN {
	b := &BATMAN{cfg: cfg}
	b.proto = proto{eng: eng, net: net, loss: cfg.LossProb, resize: b.resize}
	return b
}

// Name implements Router.
func (b *BATMAN) Name() string { return "batman" }

func (b *BATMAN) resize(dim int) {
	b.nodes = extend(b.nodes, dim, batmanNode{})
	for i := range b.nodes {
		n := &b.nodes[i]
		n.routes = extend(n.routes, dim, batmanRoute{nextHop: -1})
		n.seen = extend(n.seen, dim, 0)
	}
}

// Start implements Router: every node begins beaconing.
func (b *BATMAN) Start() {
	b.every(b.cfg.OGMIntervalS, func(nodes []int32) {
		for _, id := range nodes {
			n := &b.nodes[id]
			n.seqno++
			b.flood(id, id, n.seqno, 1.0, id)
		}
		b.purge()
	})
}

// flood sends an OGM from `from` (current rebroadcaster) describing
// originator `orig` with the given TQ to all of from's neighbors.
// skip is the neighbor the OGM arrived from.
func (b *BATMAN) flood(from, orig int32, seqno uint64, tq float64, skip int32) {
	for _, nb := range b.net.NeighborsAt(from) {
		if nb != skip {
			b.send(b.cfg.OGMBytes, from, nb, func() { b.receive(nb, from, orig, seqno, tq) })
		}
	}
}

// receive processes an OGM at node `at` arriving from neighbor `via`.
func (b *BATMAN) receive(at, via, orig int32, seqno uint64, tq float64) {
	if at == orig {
		return
	}
	n := &b.nodes[at]
	newTQ := tq * b.cfg.HopPenalty
	r := &n.routes[orig]
	// Accept if strictly newer, or same-seqno with better TQ.
	if r.nextHop < 0 || seqno > r.seqno || (seqno == r.seqno && newTQ > r.tq) {
		*r = batmanRoute{nextHop: via, tq: newTQ, seqno: seqno, heardAt: b.eng.Now()}
	}
	// Rebroadcast each (orig, seqno) once — from the first (usually
	// best-path) arrival, like batman-adv's best-link rebroadcast.
	if n.seen[orig] < seqno {
		n.seen[orig] = seqno
		b.flood(at, orig, seqno, newTQ, via)
	}
}

// purge expires stale routes.
func (b *BATMAN) purge() {
	cutoff := b.eng.Now() - b.cfg.PurgeAfterS
	for i := range b.nodes {
		for o, r := range b.nodes[i].routes {
			if r.nextHop >= 0 && r.heardAt < cutoff {
				b.nodes[i].routes[o].nextHop = -1
			}
		}
	}
}

// NextHopAt implements Router: the next hop must still be adjacent.
func (b *BATMAN) NextHopAt(src, dst int32) (int32, bool) {
	if !b.known(src, dst) {
		return -1, false
	}
	nh := b.nodes[src].routes[dst].nextHop
	if nh < 0 || !b.net.AdjacentAt(src, nh) {
		return -1, false
	}
	return nh, true
}
