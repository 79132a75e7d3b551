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
	eng *sim.Engine
	net Network
	cfg BATMANConfig

	nodes map[string]*batmanNode
	stats Stats
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
	nextHop string
	tq      float64
	seqno   uint64
	heardAt float64
}

type batmanNode struct {
	id    string
	seqno uint64
	// routes[originator] is the best-known route.
	routes map[string]*batmanRoute
	// seen[originator] is the highest seqno rebroadcast (flood
	// suppression).
	seen map[string]uint64
}

// NewBATMAN creates the protocol over a network.
func NewBATMAN(eng *sim.Engine, net Network, cfg BATMANConfig) *BATMAN {
	b := &BATMAN{eng: eng, net: net, cfg: cfg, nodes: make(map[string]*batmanNode)}
	return b
}

// Name implements Router.
func (b *BATMAN) Name() string { return "batman" }

// Stats implements Router.
func (b *BATMAN) Stats() Stats { return b.stats }

func (b *BATMAN) node(id string) *batmanNode {
	n, ok := b.nodes[id]
	if !ok {
		n = &batmanNode{id: id, routes: make(map[string]*batmanRoute), seen: make(map[string]uint64)}
		b.nodes[id] = n
	}
	return n
}

// Start implements Router: every node begins beaconing.
func (b *BATMAN) Start() {
	b.eng.Every(b.cfg.OGMIntervalS, func() bool {
		for _, id := range b.net.Nodes() {
			n := b.node(id)
			n.seqno++
			b.flood(id, id, n.seqno, 1.0, id)
		}
		b.purge()
		return true
	})
}

// flood sends an OGM from `from` (current rebroadcaster) describing
// originator `orig` with the given TQ to all of from's neighbors.
// skip is the neighbor the OGM arrived from.
func (b *BATMAN) flood(from, orig string, seqno uint64, tq float64, skip string) {
	for _, nb := range b.net.Neighbors(from) {
		if nb == skip {
			continue
		}
		nb := nb
		b.stats.MessagesSent++
		b.stats.BytesSent += int64(b.cfg.OGMBytes)
		deliver(b.eng, b.net, b.cfg.LossProb, from, nb, func() {
			if !b.net.Adjacent(nb, from) {
				return
			}
			b.receive(nb, from, orig, seqno, tq)
		})
	}
}

// receive processes an OGM at node `at` arriving from neighbor `via`.
func (b *BATMAN) receive(at, via, orig string, seqno uint64, tq float64) {
	if at == orig {
		return
	}
	n := b.node(at)
	newTQ := tq * b.cfg.HopPenalty
	r := n.routes[orig]
	// Accept if strictly newer, or same-seqno with better TQ.
	if r == nil || seqno > r.seqno || (seqno == r.seqno && newTQ > r.tq) {
		n.routes[orig] = &batmanRoute{nextHop: via, tq: newTQ, seqno: seqno, heardAt: b.eng.Now()}
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
	for _, n := range b.nodes {
		for orig, r := range n.routes {
			if r.heardAt < cutoff {
				delete(n.routes, orig)
			}
		}
	}
}

// NextHop implements Router.
func (b *BATMAN) NextHop(src, dst string) (string, bool) {
	n, ok := b.nodes[src]
	if !ok {
		return "", false
	}
	r, ok := n.routes[dst]
	if !ok {
		return "", false
	}
	// The next hop must still be adjacent.
	if !b.net.Adjacent(src, r.nextHop) {
		return "", false
	}
	return r.nextHop, true
}
