package solver

// The solve pipeline's shortest-path core. This replaces the seed's
// map-keyed Dijkstra with index arrays and a concrete (non-interface)
// binary heap, but it is deliberately NOT free to pick its own
// tie-breaks: the heap reproduces container/heap's exact sift
// algorithm with the seed's dist-only ordering, relaxation uses the
// seed's strict-< rule, and adjacency is scanned in candidate-index
// order. Every comparison and swap the seed implementation performed
// happens here in the same sequence — rows drop only entries the seed
// walks past without effect or whose comparison can never push
// (ctx.compact) — so the popped-node order, and therefore the chosen
// path, including equal-cost ties, is identical to `SolveReference`
// step by step. The equivalence property
// tests (equivalence_test.go) pin this.

// heapItem is one Dijkstra frontier entry.
type heapItem struct {
	dist float64
	node int32
	hops int32
}

// nodeHeap is a binary min-heap of frontier entries ordered by dist
// only, with container/heap's exact up/down sift so the pop order
// among equal-dist entries matches the seed's boxed heap bit for bit.
type nodeHeap []heapItem

func (h *nodeHeap) push(it heapItem) {
	hh := append(*h, it)
	j := len(hh) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(hh[j].dist < hh[i].dist) {
			break
		}
		hh[i], hh[j] = hh[j], hh[i]
		j = i
	}
	*h = hh
}

func (h *nodeHeap) pop() heapItem {
	hh := *h
	n := len(hh) - 1
	hh[0], hh[n] = hh[n], hh[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && hh[j2].dist < hh[j1].dist {
			j = j2
		}
		if !(hh[j].dist < hh[i].dist) {
			break
		}
		hh[i], hh[j] = hh[j], hh[i]
		i = j
	}
	it := hh[n]
	*h = hh[:n]
	return it
}

// spScratch is the Dijkstra state: stamp-validated per-node arrays (no
// O(V) clearing between runs), the frontier heap, and the cumulative
// work counters Solver.Stats reports.
type spScratch struct {
	heap     nodeHeap
	dist     []float64
	seen     []uint32 // stamp when dist/prev* are valid
	done     []uint32 // stamp when the node was popped
	prevEdge []int32
	prevNode []int32
	stamp    uint32
	capped   bool // current run hit the MaxPathLen cutoff at least once
	stats    Stats
}

func (s *spScratch) ensure(n int) {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.seen = make([]uint32, n)
		s.done = make([]uint32, n)
		s.prevEdge = make([]int32, n)
		s.prevNode = make([]int32, n)
		s.stamp = 0
	}
	s.dist = s.dist[:n]
	s.seen = s.seen[:n]
	s.done = s.done[:n]
	s.prevEdge = s.prevEdge[:n]
	s.prevNode = s.prevNode[:n]
}

// begin starts a fresh run: bump the stamp (lazily invalidating every
// per-node entry) and reset the frontier.
func (s *spScratch) begin() uint32 {
	if s.stamp == ^uint32(0) {
		// Stamp wrap (once per 4G runs): hard-reset the arrays.
		for i := range s.seen {
			s.seen[i] = 0
			s.done[i] = 0
		}
		s.stamp = 0
	}
	s.stamp++
	s.heap = s.heap[:0]
	s.capped = false
	return s.stamp
}

// adjEnt is one adjacency entry: the neighbour and the edge reaching
// it, so a finalised neighbour is skipped before any edge is loaded.
type adjEnt struct{ next, edge int32 }

// edgeCost is the request-independent part of an edge's path cost,
// split where the one request-dependent term sits in the seed's
// accumulation order: cost = c1 [+ SlowBitratePenalty] + pen, with
// c1 = link cost [+ MarginalPenalty] and pen the adaptive penalty of an
// edge neither chosen nor existing, else 0 (x + 0 is x bit for bit for
// every x but −0, which no cost is). ctx.pathCost fills it; choose
// refreshes it when an edge turns chosen.
type edgeCost struct{ c1, bitrate, pen float64 }

// shortestPath routes request ri over rows — c.scan (the undominated
// viable ∪ chosen edges: compact keeps it to exactly those) or
// c.chosenAdj for the final pass — writing the edge-index path into
// c.paths[ri] (reused backing) and the found flag into c.has[ri]. It
// also maintains c.nilKnown[ri]: true only when the search failed
// WITHOUT ever hitting the MaxPathLen cutoff — such a search has
// exhausted the source's connected component, so the nil outcome is
// permanent under the greedy's shrinking edge set. A cap-pruned
// failure proves nothing (hop-capped reachability is not monotone) and
// leaves nilKnown false so the request is retried like the reference
// retries every nil request. Semantics — including the order
// equal-cost ties resolve in — match SolveReference exactly; see the
// package comment in this file.
//
//minkowski:hotpath
func (c *ctx) shortestPath(ri int32, rows [][]adjEnt) {
	ws := &c.sp
	rq := &c.reqs[ri]
	out := c.paths[ri][:0]
	if rq.srcIsDst {
		c.paths[ri] = out
		c.has[ri] = true
		c.nilKnown[ri] = false
		return
	}
	st := ws.begin()
	ws.dist[rq.src] = 0
	ws.seen[rq.src] = st
	ws.heap.push(heapItem{dist: 0, node: rq.src, hops: 0})
	ws.stats.DijkstraRuns++
	ws.stats.HeapPushes++
	maxHops := int32(c.cfg.MaxPathLen)
	slow := c.cfg.SlowBitratePenalty
	for len(ws.heap) > 0 {
		cur := ws.heap.pop()
		ws.stats.HeapPops++
		if ws.done[cur.node] == st {
			continue
		}
		ws.done[cur.node] = st
		if cur.node == rq.dst || (rq.dst < 0 && c.gw[cur.node]) {
			// Reconstruct: count, size exactly, fill backwards.
			n := cur.node
			cnt := 0
			for n != rq.src {
				cnt++
				n = ws.prevNode[n]
			}
			if cap(out) < cnt {
				out = make([]int32, cnt)
			}
			out = out[:cnt]
			n = cur.node
			for i := cnt - 1; i >= 0; i-- {
				out[i] = ws.prevEdge[n]
				n = ws.prevNode[n]
			}
			c.paths[ri] = out
			c.has[ri] = true
			c.nilKnown[ri] = false
			return
		}
		if cur.hops >= maxHops {
			ws.capped = true
			continue
		}
		row := rows[cur.node]
		ws.stats.AdjScanned += uint64(len(row))
		for _, a := range row {
			if ws.done[a.next] == st {
				continue
			}
			// Edge cost, in the seed's exact accumulation order.
			ec := &c.cost[a.edge]
			cost := ec.c1
			if ec.bitrate < rq.minBr {
				cost += slow
			}
			cost += ec.pen
			nd := cur.dist + cost
			if ws.seen[a.next] != st || nd < ws.dist[a.next] {
				ws.seen[a.next] = st
				ws.dist[a.next] = nd
				ws.prevEdge[a.next] = a.edge
				ws.prevNode[a.next] = cur.node
				ws.heap.push(heapItem{dist: nd, node: a.next, hops: cur.hops + 1})
				ws.stats.HeapPushes++
			}
		}
	}
	c.paths[ri] = out
	c.has[ri] = false
	c.nilKnown[ri] = !ws.capped
}
