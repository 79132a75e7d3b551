package manet

import (
	"minkowski/internal/sim"
)

// Fast is an oracle router that models a converged proactive MANET
// (BATMAN-like) without paying for per-second beacon floods: after
// any topology change, routes reflecting the new topology become
// available ConvergenceS later; in the window between change and
// convergence, the *old* table is served, so routes through dead
// links break (exactly the transient blackhole a real protocol
// shows) and new links are not yet used.
//
// Long-horizon experiments (Figs. 4, 6, 7, 8, 11) use Fast; the
// message-level protocols above validate its convergence constant
// (see the Appendix D comparison bench).
type Fast struct {
	eng *sim.Engine
	net Network
	// ConvergenceS is the repair delay after a topology change
	// (batman-adv with 1 s OGMs repairs in ~1–3 s).
	ConvergenceS float64

	tables  map[string]map[string]string // src -> dst -> next hop
	dirtyAt float64                      // earliest unapplied change; <0 when clean
	// Recomputes counts table rebuilds (telemetry).
	Recomputes int
}

// NewFast creates the oracle router. Call TopologyChanged from the
// link fabric's OnUp/OnDown callbacks.
func NewFast(eng *sim.Engine, net Network, convergenceS float64) *Fast {
	f := &Fast{eng: eng, net: net, ConvergenceS: convergenceS, dirtyAt: -1}
	f.recompute()
	return f
}

// Name implements Router.
func (f *Fast) Name() string { return "fast-converged" }

// Stats implements Router. The oracle sends no messages; overhead
// modelling belongs to the message-level protocols.
func (f *Fast) Stats() Stats { return Stats{} }

// Start implements Router (no periodic work).
func (f *Fast) Start() {}

// TopologyChanged notes that the link set changed now.
func (f *Fast) TopologyChanged() {
	if f.dirtyAt < 0 {
		f.dirtyAt = f.eng.Now()
	}
}

// maybeRecompute rebuilds tables once the convergence delay has
// passed since the first unapplied change.
func (f *Fast) maybeRecompute() {
	if f.dirtyAt >= 0 && f.eng.Now() >= f.dirtyAt+f.ConvergenceS {
		f.recompute()
		f.dirtyAt = -1
	}
}

// recompute rebuilds all-pairs next hops by BFS from every node.
func (f *Fast) recompute() {
	f.Recomputes++
	f.tables = make(map[string]map[string]string)
	for _, src := range f.net.Nodes() {
		f.tables[src] = bfsNextHops(f.net, src)
	}
}

// bfsNextHops returns dst → first-hop for every node reachable from
// src.
func bfsNextHops(net Network, src string) map[string]string {
	out := map[string]string{}
	visited := map[string]bool{src: true}
	type qe struct{ node, via string }
	var queue []qe
	for _, nb := range net.Neighbors(src) {
		visited[nb] = true
		out[nb] = nb
		queue = append(queue, qe{nb, nb})
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, m := range net.Neighbors(cur.node) {
			if visited[m] {
				continue
			}
			visited[m] = true
			out[m] = cur.via
			queue = append(queue, qe{m, cur.via})
		}
	}
	return out
}

// NextHop implements Router. Stale entries whose next hop is no
// longer adjacent fail (the transient blackhole before convergence).
//
//minkowski:hotpath
func (f *Fast) NextHop(src, dst string) (string, bool) {
	f.maybeRecompute()
	t, ok := f.tables[src]
	if !ok {
		return "", false
	}
	nh, ok := t[dst]
	if !ok {
		return "", false
	}
	if !f.net.Adjacent(src, nh) {
		return "", false
	}
	return nh, true
}
