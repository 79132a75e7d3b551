package solver

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"minkowski/internal/linkeval"
	"minkowski/internal/rf"
)

// This file is the solve engine behind Solve. It executes the same
// Appendix B iterative greedy as SolveReference — the seed
// implementation retained in reference_test.go — but over index
// arrays instead of string-keyed maps, with scratch reuse across
// cycles and per-request Dijkstra batches fanned out over a worker
// pool with a deterministic index-slot merge. Nothing but the scratch
// arenas outlives a solve. Output plans are byte-identical to
// SolveReference at any worker count; DESIGN.md §10 gives the
// argument, the equivalence property tests enforce it.

// edge is the engine's mutable view of one candidate; what a path
// search reads of it lives in the parallel edgeCost record.
type edge struct {
	rep      *linkeval.Report
	a, b     int32 // node indices
	viable   bool
	chosen   bool
	exist    bool
	marginal bool
	penalty  float64
}

// reqView is a request resolved against the node table.
type reqView struct {
	src, dst int32 // node indices; dst < 0 means "any gateway"
	srcIsDst bool
	minBr    float64
	util     float64 // per-path-edge utility contribution, max(minBr, 1)
}

// ctx is the engine's per-solve state. Every slice is scratch owned
// by the Solver and reused across cycles; reset() rebuilds it from an
// Input without reallocating on the steady state.
type ctx struct {
	cfg       Config
	in        *Input
	nodes     []string // node index -> ID
	nodeOf    map[string]int32
	gw        []bool
	edges     []edge
	cost      []edgeCost // per edge: see edgeCost
	adj       [][]adjEnt // node -> usable (viable ∪ chosen) candidate edges, edge order
	chosenAdj [][]adjEnt // final-phase view: chosen edges only
	dirty     []bool     // per node: adj row holds an edge retired since its last compaction
	chanMask  []uint16   // per node: bit k = channels[k] in use
	channels  []rf.Channel

	reqs     []reqView
	util     []float64
	paths    [][]int32 // per request: current path (edge indexes)
	has      []bool    // per request: path found
	nilKnown []bool    // per request: proven PERMANENTLY unreachable (failed search, hop cap never fired)
	broken   []int32
	degree   []int32
	nodeCls  []uint8 // redundancy classification: 1 balloon, 2 ground

	workerW int // fan-out width resolved once per solve (see workerCount)
	workers []spScratch
}

func (c *ctx) internNode(id string) int32 {
	if i, ok := c.nodeOf[id]; ok {
		return i
	}
	i := int32(len(c.nodes))
	c.nodes = append(c.nodes, id)
	c.nodeOf[id] = i
	return i
}

// reset rebuilds the ctx for one solve.
func (c *ctx) reset(cfg Config, in *Input, workers int) {
	c.cfg = cfg
	c.in = in
	c.nodes = c.nodes[:0]
	if c.nodeOf == nil {
		c.nodeOf = make(map[string]int32, 256)
	} else {
		clear(c.nodeOf)
	}
	c.edges = c.edges[:0]
	c.cost = c.cost[:0]
	if c.channels == nil {
		c.channels = rf.EBandChannels()
	}
	for _, rep := range in.Candidates {
		na, nb := rep.XA.Node.ID, rep.XB.Node.ID
		if in.Drained[na] || in.Drained[nb] {
			continue
		}
		e := edge{
			rep:      rep,
			a:        c.internNode(na),
			b:        c.internNode(nb),
			viable:   true,
			exist:    in.Existing[rep.ID],
			marginal: rep.Class == rf.Marginal,
			penalty:  in.Penalties[rep.ID],
		}
		c.edges = append(c.edges, e)
		c1, pen := c.pathCost(&e)
		c.cost = append(c.cost, edgeCost{c1: c1, bitrate: rep.Budget.BitrateBps, pen: pen})
	}
	for _, g := range in.Gateways {
		c.internNode(g)
	}
	for _, r := range in.Requests {
		c.internNode(r.Src)
		if r.Dst != "" {
			c.internNode(r.Dst)
		}
	}
	nV := len(c.nodes)
	c.gw = grow(c.gw, nV)
	for _, g := range in.Gateways {
		c.gw[c.nodeOf[g]] = true
	}
	c.adj = growRows(c.adj, nV)
	c.chosenAdj = growRows(c.chosenAdj, nV)
	for i := range c.edges {
		e := &c.edges[i]
		c.adj[e.a] = append(c.adj[e.a], adjEnt{next: e.b, edge: int32(i)})
		c.adj[e.b] = append(c.adj[e.b], adjEnt{next: e.a, edge: int32(i)})
	}
	c.dirty = grow(c.dirty, nV)
	c.chanMask = grow(c.chanMask, nV)
	c.degree = grow(c.degree, nV)
	c.nodeCls = grow(c.nodeCls, nV)

	nR := len(in.Requests)
	c.reqs = grow(c.reqs, nR)
	for i, r := range in.Requests {
		rq := &c.reqs[i]
		rq.src = c.nodeOf[r.Src]
		rq.dst = -1
		if r.Dst != "" {
			rq.dst = c.nodeOf[r.Dst]
			rq.srcIsDst = rq.src == rq.dst
		} else {
			rq.srcIsDst = c.gw[rq.src]
		}
		rq.minBr = r.MinBitrateBps
		rq.util = math.Max(r.MinBitrateBps, 1)
	}
	c.paths = growRows(c.paths, nR)
	c.has = grow(c.has, nR)
	c.nilKnown = grow(c.nilKnown, nR)
	c.util = grow(c.util, len(c.edges))

	c.workerW = workers
	if len(c.workers) < workers {
		ws := make([]spScratch, workers)
		copy(ws, c.workers)
		c.workers = ws
	}
	for i := 0; i < workers; i++ {
		c.workers[i].ensure(nV)
	}
}

// grow returns a zeroed s of length n, reusing its backing when that is
// large enough and otherwise allocating one with a quarter of head-room,
// so a candidate count that creeps up from cycle to cycle does not
// reallocate on every step.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	s = s[:n]
	clear(s)
	return s
}

// growRows is grow for a slice of reusable rows: every row is kept,
// emptied.
func growRows[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		ns := make([][]T, n, n+n/4)
		copy(ns, s[:cap(s)])
		s = ns
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// pathCost is the request-independent split of e's path cost, from its
// current flags (see edgeCost).
func (c *ctx) pathCost(e *edge) (c1, pen float64) {
	switch {
	case e.chosen:
		c1 = c.cfg.ChosenLinkCost
	case e.exist:
		c1 = c.cfg.ExistingLinkCost
	default:
		c1, pen = c.cfg.NewLinkCost, e.penalty
	}
	if e.marginal {
		c1 += c.cfg.MarginalPenalty
	}
	return c1, pen
}

// retire makes an edge unusable for the rest of the solve and marks the
// rows that list it for compaction.
func (c *ctx) retire(e *edge) {
	e.viable = false
	c.dirty[e.a], c.dirty[e.b] = true, true
}

// compact drops from every dirty row the entries whose edge is neither
// viable nor chosen, in place and in order. Such an entry is one the
// seed's scan walks past without a comparison, a push or a pop, so the
// searches that follow do exactly what they would have done over the
// full row. Serial, between re-route batches: workers only read rows.
//
//minkowski:hotpath
func (c *ctx) compact() {
	for n, d := range c.dirty {
		if !d {
			continue
		}
		c.dirty[n] = false
		row := c.adj[n]
		k := 0
		for _, a := range row {
			if e := &c.edges[a.edge]; e.viable || e.chosen {
				row[k] = a
				k++
			}
		}
		c.adj[n] = row[:k]
	}
}

// workerCount resolves the fan-out width for a batch of items from
// the width cached at reset. GOMAXPROCS is deliberately not re-read
// here: c.workers was sized once at solve start, and a GOMAXPROCS
// change between batches must not let forEach index past it.
func (s *Solver) workerCount(items int) int {
	w := s.c.workerW
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEach runs fn(0..n-1) across the worker pool in contiguous index
// chunks. Every task writes only its own index slot, so the merge is
// the slot layout itself: results are position-determined and
// identical at any worker count. Falls back to a serial sweep on one
// core and for trivial batches.
func (s *Solver) forEach(n int, fn func(i int, ws *spScratch)) {
	if n == 0 {
		return
	}
	w := s.workerCount(n)
	if w <= 1 || n <= 2 {
		ws := &s.c.workers[0]
		for i := 0; i < n; i++ {
			fn(i, ws)
		}
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		lo := wk * chunk
		if lo >= n {
			break
		}
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int, ws *spScratch) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i, ws)
			}
		}(lo, hi, &s.c.workers[wk])
	}
	wg.Wait()
}

// run is the optimized solve pipeline: the initial per-request
// Dijkstra batch, the sequential greedy commit loop with parallel
// re-route batches, the final chosen-only routing pass, and the
// redundancy secondary objective.
func (s *Solver) run(in *Input) *Plan {
	c := &s.c
	//minkowski:dettaint-ok read once at solve entry and frozen in c.reset; worker count only shards work and the merge is order-fixed, so plans are byte-identical for any value
	c.reset(s.cfg, in, runtime.GOMAXPROCS(0))
	nR := len(in.Requests)
	plan := &Plan{Routes: make(map[string][]string, nR)}

	// --- Initial routing phase --------------------------------------
	s.forEach(nR, func(ri int, ws *spScratch) {
		c.shortestPath(int32(ri), c.adj, ws)
	})

	// --- Greedy commit loop (sequential, seed-identical) ------------
	for {
		util := c.util
		for i := range util {
			util[i] = 0
		}
		for ri := range c.reqs {
			uw := c.reqs[ri].util
			for _, ei := range c.paths[ri] {
				if !c.edges[ei].chosen {
					util[ei] += uw
				}
			}
		}
		best, bestU := int32(-1), 0.0
		for i := range c.edges {
			e := &c.edges[i]
			if !e.viable || e.chosen || util[i] <= 0 {
				continue
			}
			u := util[i]
			if e.exist {
				u *= 1 + c.cfg.HysteresisBonus
			}
			if u > bestU {
				best, bestU = int32(i), u
			}
		}
		if best < 0 {
			break
		}
		c.choose(plan, best, false)
		c.compact()
		// Collect requests whose path lost an edge, plus pathless
		// requests not yet proven permanently unreachable; re-route
		// them as a batch. The reference recomputes EVERY nil-path
		// request each iteration; the engine may skip only the
		// nilKnown ones — a failed search that never hit the hop cap
		// exhausted the source's component, and connectivity is
		// monotone under the shrinking edge set, so the reference's
		// re-run returns the same nil. A cap-pruned failure is NOT
		// permanent (conflict elimination and chosen-edge cost drops
		// reorder pops, so a node can finalize with fewer hops and
		// un-cap a path) and is retried like the reference.
		c.broken = c.broken[:0]
		for ri := range c.reqs {
			if c.nilKnown[ri] {
				continue
			}
			if !c.has[ri] {
				c.broken = append(c.broken, int32(ri))
				continue
			}
			for _, ei := range c.paths[ri] {
				e := &c.edges[ei]
				if !e.viable && !e.chosen {
					c.broken = append(c.broken, int32(ri))
					break
				}
			}
		}
		brk := c.broken
		s.forEach(len(brk), func(k int, ws *spScratch) {
			c.shortestPath(brk[k], c.adj, ws)
		})
	}

	// --- Final routing strictly over the chosen topology ------------
	for i := range c.edges {
		if e := &c.edges[i]; e.chosen {
			c.chosenAdj[e.a] = append(c.chosenAdj[e.a], adjEnt{next: e.b, edge: int32(i)})
			c.chosenAdj[e.b] = append(c.chosenAdj[e.b], adjEnt{next: e.a, edge: int32(i)})
		}
	}
	// The reference final-routes every request. nilKnown requests are
	// component-unreachable over the usable edge set, and the chosen
	// set is a subset of it, so their chosen-only route is the same
	// nil and the Dijkstra is skipped; everything else (including
	// cap-pruned failures, whose reachability over the smaller chosen
	// graph can differ) runs for real.
	s.forEach(nR, func(ri int, ws *spScratch) {
		if !c.nilKnown[ri] {
			c.shortestPath(int32(ri), c.chosenAdj, ws)
		}
	})
	for i := 0; i < c.workerW; i++ {
		s.stats.add(c.workers[i].stats)
		c.workers[i].stats = Stats{}
	}
	for ri, r := range in.Requests {
		if !c.has[ri] {
			plan.Unsatisfied = append(plan.Unsatisfied, r)
			continue
		}
		// The node path, read off the edge path (freshly allocated: it
		// escapes into the plan).
		n := c.reqs[ri].src
		np := make([]string, 1, len(c.paths[ri])+1)
		np[0] = c.nodes[n]
		for _, ei := range c.paths[ri] {
			if e := &c.edges[ei]; e.a == n {
				n = e.b
			} else {
				n = e.a
			}
			np = append(np, c.nodes[n])
		}
		plan.Routes[r.ID] = np
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
	// The candidates live in storage their evaluator's next graph
	// overwrites (linkeval.CandidateGraph), and a plan outlives that
	// call — as lastPlan, in the intent store, under explain.WhyNot —
	// so it takes the reports it chose by value.
	own := make([]linkeval.Report, len(plan.Links))
	for i := range plan.Links {
		own[i] = *plan.Links[i].Report
		plan.Links[i].Report = &own[i]
	}
	return plan
}

// choose commits an edge — channel assignment + conflict elimination —
// or, when no channel is free at both ends, retires it and reports
// false.
func (c *ctx) choose(plan *Plan, idx int32, redundant bool) bool {
	e := &c.edges[idx]
	ch, chBit, ok := c.pickChannel(e)
	if !ok {
		c.retire(e)
		return false
	}
	e.chosen = true
	c.cost[idx].c1, c.cost[idx].pen = c.pathCost(e)
	c.chanMask[e.a] |= chBit
	c.chanMask[e.b] |= chBit
	plan.Links = append(plan.Links, Chosen{
		Report: e.rep, Channel: ch,
		Redundant:        redundant,
		KeptFromPrevious: e.exist,
	})
	// One pairing per transceiver.
	for _, n := range [2]int32{e.a, e.b} {
		for _, oa := range c.adj[n] {
			o := &c.edges[oa.edge]
			if o.chosen || !o.viable {
				continue
			}
			if o.rep.XA == e.rep.XA || o.rep.XA == e.rep.XB ||
				o.rep.XB == e.rep.XA || o.rep.XB == e.rep.XB {
				c.retire(o)
			}
		}
	}
	return true
}

// pickChannel returns the lowest channel unused at both endpoint
// platforms, plus its bitmask bit.
func (c *ctx) pickChannel(e *edge) (rf.Channel, uint16, bool) {
	used := c.chanMask[e.a] | c.chanMask[e.b]
	for k, ch := range c.channels {
		if bit := uint16(1) << uint(k); used&bit == 0 {
			return ch, bit, true
		}
	}
	return rf.Channel{}, 0, false
}

// addRedundancy implements the secondary objective: task idle
// transceivers with extra links until the Appendix A redundancy
// target is reached. The scoring — including its float accumulation
// order — is the seed's, verbatim.
func (c *ctx) addRedundancy(plan *Plan) {
	for i := range c.nodes {
		c.degree[i] = 0
		c.nodeCls[i] = 0
	}
	balloons, grounds := 0, 0
	for i := range c.edges {
		e := &c.edges[i]
		for _, n := range [2]int32{e.a, e.b} {
			if c.nodeCls[n] == 0 {
				if c.gw[n] {
					c.nodeCls[n] = 2
					grounds++
				} else {
					c.nodeCls[n] = 1
					balloons++
				}
			}
		}
		if e.chosen {
			c.degree[e.a]++
			c.degree[e.b]++
		}
	}
	lmin, lmax := RedundancyBounds(balloons, grounds)
	target := int(c.cfg.RedundancyTargetFrac * float64(lmax-lmin))
	for added := 0; added < target; added++ {
		best, bestScore := int32(-1), math.Inf(-1)
		for i := range c.edges {
			e := &c.edges[i]
			if !e.viable || e.chosen {
				continue
			}
			score := -float64(c.degree[e.a]+c.degree[e.b]) + e.rep.Budget.MarginDB/100
			score -= e.penalty
			if e.exist {
				score += 3 * (1 + c.cfg.HysteresisBonus)
			}
			if e.marginal {
				score -= 10
			}
			if score > bestScore {
				best, bestScore = int32(i), score
			}
		}
		if best < 0 {
			break
		}
		if !c.choose(plan, best, true) {
			added--
			continue
		}
		e := &c.edges[best]
		c.degree[e.a]++
		c.degree[e.b]++
	}
}
