package manet

import (
	"slices"

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
// Long-horizon experiments (Figs. 4, 6, 7, 8, 11) use Fast with
// ConvergenceS = 2.0. That constant is asserted, not measured: the
// Appendix D comparison reports availability and bytes for the
// message-level protocols, not their repair times, and no test sets
// Fast's window or path choice against them (ROADMAP item 3(b)).
//
// Fast works by node index (Network.IDs) on one flat table rebuilt in
// place; NextHop by node ID translates at the boundary.
type Fast struct {
	eng *sim.Engine
	net Network
	// ConvergenceS is the repair delay after a topology change
	// (batman-adv with 1 s OGMs repairs in ~1–3 s).
	ConvergenceS float64

	// next[src*dim+dst] is src's first hop toward dst, -1 where it has
	// none; dim is the ID table's size at the last recompute, so a node
	// registered since is out of range until the next one.
	next        []int32
	dim         int32
	srcs, queue []int32 // recompute's scratch
	dirtyAt     float64 // earliest unapplied change; <0 when clean
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

// recompute rebuilds all-pairs next hops by BFS from every node,
// reallocating only when the ID table has grown since the last time.
//
//minkowski:hotpath
func (f *Fast) recompute() {
	f.Recomputes++
	if dim := int32(f.net.IDs().Len()); dim != f.dim {
		f.dim = dim
		f.next = make([]int32, int(dim)*int(dim))
	}
	for i := range f.next {
		f.next[i] = -1
	}
	f.srcs = f.net.AppendNodes(f.srcs[:0])
	for _, src := range f.srcs {
		f.bfs(src)
	}
}

// bfs fills src's row with the first hop toward every node reachable
// from src. Neighbours come in node-ID order and the frontier is FIFO,
// which decides among equally short routes. A filled entry doubles as
// the visited mark.
//
//minkowski:hotpath
func (f *Fast) bfs(src int32) {
	row := f.next[int(src)*int(f.dim):][:f.dim]
	row[src] = src // visited; cleared below, a node has no hop to itself
	q := f.queue[:0]
	for _, nb := range f.net.NeighborsAt(src) {
		if row[nb] < 0 {
			row[nb] = nb
			q = append(q, nb)
		}
	}
	for head := 0; head < len(q); head++ {
		via := row[q[head]]
		for _, m := range f.net.NeighborsAt(q[head]) {
			if row[m] < 0 {
				row[m] = via
				q = append(q, m)
			}
		}
	}
	row[src] = -1
	f.queue = q
}

// NextHopAt returns the next hop from src toward dst by index. Stale
// entries whose next hop is no longer adjacent fail (the transient
// blackhole before convergence).
//
//minkowski:hotpath
func (f *Fast) NextHopAt(src, dst int32) (int32, bool) {
	f.maybeRecompute()
	if uint32(src) >= uint32(f.dim) || uint32(dst) >= uint32(f.dim) {
		return -1, false
	}
	nh := f.next[int(src)*int(f.dim)+int(dst)]
	if nh < 0 || !f.net.AdjacentAt(src, nh) {
		return -1, false
	}
	return nh, true
}

// NextHop implements Router: NextHopAt by node ID.
//
//minkowski:hotpath
func (f *Fast) NextHop(src, dst string) (string, bool) {
	f.maybeRecompute() // due even when the lookups below fail
	ids := f.net.IDs()
	s, oks := ids.Lookup(src)
	d, okd := ids.Lookup(dst)
	if !oks || !okd {
		return "", false
	}
	nh, ok := f.NextHopAt(s, d)
	if !ok {
		return "", false
	}
	return ids.Name(nh), true
}

// maxHops bounds a next-hop walk.
const maxHops = 64

// AppendPath is PathFrom by index into the caller's buffer: it appends
// the node path (src first, dst last) to buf if the route completes
// within maxHops without revisiting a node. On failure the result holds
// a partial walk: reuse its storage, ignore its contents.
//
//minkowski:hotpath
func (f *Fast) AppendPath(buf []int32, src, dst int32) ([]int32, bool) {
	start := len(buf)
	buf = append(buf, src)
	if src == dst {
		return buf, true
	}
	for cur := src; len(buf)-start <= maxHops; {
		nh, ok := f.NextHopAt(cur, dst)
		// The walk is at most maxHops long, so the path is its own
		// visited set.
		if !ok || slices.Contains(buf[start:], nh) {
			return buf, false
		}
		buf = append(buf, nh)
		if nh == dst {
			return buf, true
		}
		cur = nh
	}
	return buf, false
}
