package solver

// SolveReference is the original (seed) solver implementation,
// retained verbatim — string-keyed maps, per-iteration full utility
// recomputation, from-scratch Dijkstra per request — as the ground
// truth for the optimized engine. The equivalence property tests
// assert Solve produces byte-identical plans; the benchmarks
// use it as the "seed sequential" baseline. The only mechanical change
// from the seed is refHeap: a concrete frontier heap reproducing
// container/heap's exact sift algorithm (same comparisons, same swaps,
// same pop order on equal-cost ties), which removes the package's last
// interface{} boxing without perturbing a single tie-break.

import (
	"math"
	"sort"

	"minkowski/internal/linkeval"
	"minkowski/internal/rf"
)

// refEdge is the reference's mutable view of a candidate.
type refEdge struct {
	rep    *linkeval.Report
	a, b   string
	viable bool
	chosen bool
	exist  bool
	chanID int
}

// refCtx is the reference's per-solve state.
type refCtx struct {
	cfg      Config
	in       Input
	edges    []*refEdge
	adj      map[string][]int
	chanUsed map[string]map[int]bool
	channels []rf.Channel
	gwSet    map[string]bool
}

// SolveReference runs one cycle with the seed algorithm.
func (s *Solver) SolveReference(in Input) *Plan {
	c := &refCtx{
		cfg: s.cfg, in: in,
		adj:      map[string][]int{},
		chanUsed: map[string]map[int]bool{},
		channels: rf.EBandChannels(),
		gwSet:    map[string]bool{},
	}
	for _, g := range in.Gateways {
		c.gwSet[g] = true
	}
	for _, rep := range in.Candidates {
		a, b := rep.XA.Node.ID, rep.XB.Node.ID
		if in.Drained[a] || in.Drained[b] {
			continue
		}
		c.edges = append(c.edges, &refEdge{rep: rep, a: a, b: b, viable: true, exist: in.Existing[rep.ID]})
	}
	for i, e := range c.edges {
		c.adj[e.a] = append(c.adj[e.a], i)
		c.adj[e.b] = append(c.adj[e.b], i)
	}
	plan := &Plan{Routes: map[string][]string{}}

	// Current path per request over viable ∪ chosen edges.
	paths := make(map[string][]int)
	for _, r := range in.Requests {
		paths[r.ID], _ = c.shortestPath(r, false)
	}
	// Greedy loop.
	for {
		util := make([]float64, len(c.edges))
		for _, r := range in.Requests {
			for _, ei := range paths[r.ID] {
				if !c.edges[ei].chosen {
					util[ei] += math.Max(r.MinBitrateBps, 1)
				}
			}
		}
		best, bestU := -1, 0.0
		for i, e := range c.edges {
			if !e.viable || e.chosen || util[i] <= 0 {
				continue
			}
			u := util[i]
			if e.exist {
				u *= 1 + c.cfg.HysteresisBonus
			}
			if u > bestU {
				best, bestU = i, u
			}
		}
		if best < 0 {
			break
		}
		if !c.choose(plan, best, false) {
			c.edges[best].viable = false
		}
		// Re-route requests whose path lost an edge.
		for _, r := range in.Requests {
			broken := false
			for _, ei := range paths[r.ID] {
				e := c.edges[ei]
				if !e.viable && !e.chosen {
					broken = true
					break
				}
			}
			if broken || paths[r.ID] == nil {
				paths[r.ID], _ = c.shortestPath(r, false)
			}
		}
	}
	// Final routing strictly over the chosen topology.
	for _, r := range in.Requests {
		edgePath, nodes := c.shortestPath(r, true)
		if edgePath == nil {
			plan.Unsatisfied = append(plan.Unsatisfied, r)
			continue
		}
		plan.Routes[r.ID] = nodes
		plan.Utility += r.MinBitrateBps
	}
	c.addRedundancy(plan)
	sort.Slice(plan.Links, func(i, j int) bool {
		a, b := plan.Links[i].Report.ID, plan.Links[j].Report.ID
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	return plan
}

// choose commits an edge: channel assignment + conflict elimination.
func (c *refCtx) choose(plan *Plan, idx int, redundant bool) bool {
	e := c.edges[idx]
	ch, ok := c.pickChannel(e)
	if !ok {
		return false
	}
	e.chosen = true
	e.chanID = ch.ID
	c.markChannel(e.a, ch.ID)
	c.markChannel(e.b, ch.ID)
	plan.Links = append(plan.Links, Chosen{
		Report: e.rep, Channel: ch,
		Redundant:        redundant,
		KeptFromPrevious: e.exist,
	})
	// One pairing per transceiver.
	for _, lst := range [][]int{c.adj[e.a], c.adj[e.b]} {
		for _, oi := range lst {
			o := c.edges[oi]
			if o.chosen || !o.viable {
				continue
			}
			if o.rep.XA == e.rep.XA || o.rep.XA == e.rep.XB ||
				o.rep.XB == e.rep.XA || o.rep.XB == e.rep.XB {
				o.viable = false
			}
		}
	}
	return true
}

// pickChannel returns the lowest channel unused at both endpoint
// platforms.
func (c *refCtx) pickChannel(e *refEdge) (rf.Channel, bool) {
	for _, ch := range c.channels {
		if !c.chanUsed[e.a][ch.ID] && !c.chanUsed[e.b][ch.ID] {
			return ch, true
		}
	}
	return rf.Channel{}, false
}

func (c *refCtx) markChannel(node string, chID int) {
	m := c.chanUsed[node]
	if m == nil {
		m = map[int]bool{}
		c.chanUsed[node] = m
	}
	m[chID] = true
}

// edgeCost returns the routing cost of an edge for utility
// estimation.
func (c *refCtx) edgeCost(e *refEdge, r Request) float64 {
	var cost float64
	switch {
	case e.chosen:
		cost = c.cfg.ChosenLinkCost
	case e.exist:
		cost = c.cfg.ExistingLinkCost
	default:
		cost = c.cfg.NewLinkCost
	}
	if e.rep.Class == rf.Marginal {
		cost += c.cfg.MarginalPenalty
	}
	if e.rep.Budget.BitrateBps < r.MinBitrateBps {
		cost += c.cfg.SlowBitratePenalty
	}
	if !e.chosen && !e.exist {
		cost += c.in.Penalties[e.rep.ID]
	}
	return cost
}

// refItem is a Dijkstra frontier entry.
type refItem struct {
	node string
	dist float64
	hops int
}

// refHeap is a concrete min-heap of frontier entries with
// container/heap's exact sift (the seed used heap.Push/heap.Pop over
// an interface{}-boxed pq with the same dist-only Less).
type refHeap []refItem

func (h *refHeap) push(it refItem) {
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

func (h *refHeap) pop() refItem {
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

// shortestPath routes a request over viable (∪ chosen) edges, or
// chosen-only when chosenOnly. Returns the edge-index path and node
// path, or nil when unreachable.
func (c *refCtx) shortestPath(r Request, chosenOnly bool) ([]int, []string) {
	isDst := func(n string) bool {
		if r.Dst != "" {
			return n == r.Dst
		}
		return c.gwSet[n]
	}
	if isDst(r.Src) {
		return []int{}, []string{r.Src}
	}
	dist := map[string]float64{r.Src: 0}
	hops := map[string]int{r.Src: 0}
	prevEdge := map[string]int{}
	prevNode := map[string]string{}
	done := map[string]bool{}
	frontier := &refHeap{{node: r.Src}}
	for len(*frontier) > 0 {
		cur := frontier.pop()
		if done[cur.node] {
			continue
		}
		done[cur.node] = true
		if isDst(cur.node) {
			// Reconstruct.
			var epath []int
			var npath []string
			n := cur.node
			for n != r.Src {
				epath = append(epath, prevEdge[n])
				npath = append(npath, n)
				n = prevNode[n]
			}
			npath = append(npath, r.Src)
			// Reverse.
			for i, j := 0, len(epath)-1; i < j; i, j = i+1, j-1 {
				epath[i], epath[j] = epath[j], epath[i]
			}
			for i, j := 0, len(npath)-1; i < j; i, j = i+1, j-1 {
				npath[i], npath[j] = npath[j], npath[i]
			}
			return epath, npath
		}
		if cur.hops >= c.cfg.MaxPathLen {
			continue
		}
		for _, ei := range c.adj[cur.node] {
			e := c.edges[ei]
			if chosenOnly {
				if !e.chosen {
					continue
				}
			} else if !e.viable && !e.chosen {
				continue
			}
			next := e.a
			if next == cur.node {
				next = e.b
			}
			if done[next] {
				continue
			}
			nd := cur.dist + c.edgeCost(e, r)
			if old, ok := dist[next]; !ok || nd < old {
				dist[next] = nd
				hops[next] = cur.hops + 1
				prevEdge[next] = ei
				prevNode[next] = cur.node
				frontier.push(refItem{node: next, dist: nd, hops: cur.hops + 1})
			}
		}
	}
	return nil, nil
}

// addRedundancy implements the secondary objective: task idle
// transceivers with extra links until the Appendix A redundancy
// target is reached. Candidates that connect the least-connected
// nodes with the best margins are preferred.
func (c *refCtx) addRedundancy(plan *Plan) {
	// Degrees over chosen links.
	degree := map[string]int{}
	balloons := map[string]bool{}
	grounds := map[string]bool{}
	for _, e := range c.edges {
		if c.gwSet[e.a] {
			grounds[e.a] = true
		} else {
			balloons[e.a] = true
		}
		if c.gwSet[e.b] {
			grounds[e.b] = true
		} else {
			balloons[e.b] = true
		}
		if e.chosen {
			degree[e.a]++
			degree[e.b]++
		}
	}
	base := len(plan.Links)
	lmin, lmax := RedundancyBounds(len(balloons), len(grounds))
	target := int(c.cfg.RedundancyTargetFrac * float64(lmax-lmin))
	for added := 0; added < target; added++ {
		best, bestScore := -1, math.Inf(-1)
		for i, e := range c.edges {
			if !e.viable || e.chosen {
				continue
			}
			// Prefer links touching poorly connected nodes; margin
			// breaks ties; marginal class penalized; and — crucially
			// for topology stability — already-installed links get a
			// strong retention bonus (redundant links churned badly
			// before this hysteresis existed).
			score := -float64(degree[e.a]+degree[e.b]) + e.rep.Budget.MarginDB/100
			score -= c.in.Penalties[e.rep.ID]
			if e.exist {
				score += 3 * (1 + c.cfg.HysteresisBonus)
			}
			if e.rep.Class == rf.Marginal {
				score -= 10
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			break
		}
		if !c.choose(plan, best, true) {
			c.edges[best].viable = false
			added--
			continue
		}
		e := c.edges[best]
		degree[e.a]++
		degree[e.b]++
	}
	_ = base
}
