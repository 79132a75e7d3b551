package solver

import (
	"math"
	"slices"
	"sort"

	"minkowski/internal/linkeval"
	"minkowski/internal/rf"
)

// This file is the solve engine behind Solve. It executes the same
// Appendix B iterative greedy as SolveReference — the seed
// implementation retained in reference_test.go — but over index
// arrays instead of string-keyed maps, with scratch reuse across
// cycles, on the calling goroutine. Nothing but the scratch arenas and
// the work counters outlives a solve. Output plans are byte-identical
// to SolveReference; DESIGN.md §10 gives the argument, the equivalence
// property tests enforce it.

// edge is the engine's mutable view of one candidate; what a path
// search reads of it lives in the parallel edgeCost record.
type edge struct {
	rep      *linkeval.Report
	a, b     int32 // node indices
	group    int32 // node-pair group: the edges joining the same two platforms
	class    int32 // bitrate class: how many distinct request bitrates it carries
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
	adj       [][]adjEnt // node -> every candidate edge, edge order
	scan      [][]adjEnt // node -> the adj entries whose edge is inScan: what a greedy search walks
	chosenAdj [][]adjEnt // final-phase view: chosen edges only
	dirty     []bool     // per node: scan row holds an edge that has left the scan
	chanMask  []uint16   // per node: bit k = channels[k] in use
	channels  []rf.Channel

	// Node-pair groups, flat: group g's edges, in edge order, are
	// grpEdges[grpOff[g]:grpOff[g+1]]. grpMarked lists the groups whose
	// dominance compact must recompute (grpMark dedupes it).
	grpOff    []int32
	grpEdges  []int32
	grpMark   []bool
	grpMarked []int32
	inScan    []bool    // per edge: usable (viable ∪ chosen) and undominated (see regroup)
	shown     []int32   // edges regroup put back in the scan since the last compaction
	pairSeen  []int32   // group's scratch: per neighbour m, 1 + the last node n whose row reached it
	pairGrp   []int32   // group's scratch: per neighbour m, the group of pair (n, m)
	bitrates  []float64 // distinct request bitrates, ascending (bitrate classes)

	reqs     []reqView
	util     []float64
	swept    []int32   // the edges of current paths in the last sweep, ascending
	paths    [][]int32 // per request: current path (edge indexes)
	has      []bool    // per request: path found
	nilKnown []bool    // per request: proven PERMANENTLY unreachable (failed search, hop cap never fired)
	degree   []int32
	nodeCls  []uint8 // redundancy classification: 1 balloon, 2 ground

	sp spScratch // the shortest-path search's state and work counters
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
func (c *ctx) reset(cfg Config, in *Input) {
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
	c.swept = c.swept[:0]
	c.sp.ensure(nV)
	c.classify()
	c.group()
}

// classify sets every edge's bitrate class: the number of distinct
// request bitrates b for which !(bitrate < b), i.e. the requests the
// edge carries without SlowBitratePenalty. Every request a lower class
// carries at full rate, a higher one does too.
func (c *ctx) classify() {
	br := c.bitrates[:0]
	for i := range c.reqs {
		br = append(br, c.reqs[i].minBr)
	}
	slices.Sort(br) // NaNs first: they penalise no edge, so every class counts them
	br = slices.Compact(br)
	c.bitrates = br
	for i := range c.edges {
		bps := c.cost[i].bitrate
		c.edges[i].class = int32(sort.Search(len(br), func(k int) bool { return bps < br[k] }))
	}
}

// group sorts the edges into node-pair groups, flat, each in edge
// order, computes every group's dominance and builds the scan rows.
func (c *ctx) group() {
	nV := len(c.nodes)
	c.pairSeen = grow(c.pairSeen, nV)
	c.pairGrp = grow(c.pairGrp, nV)
	ng := int32(0)
	for n := range c.adj {
		for _, a := range c.adj[n] {
			if int(a.next) < n { // the pair's lower node numbers its group
				continue
			}
			if c.pairSeen[a.next] != int32(n)+1 {
				c.pairSeen[a.next] = int32(n) + 1
				c.pairGrp[a.next] = ng
				ng++
			}
			c.edges[a.edge].group = c.pairGrp[a.next]
		}
	}
	off := grow(c.grpOff, int(ng)+1)
	for i := range c.edges {
		off[c.edges[i].group+1]++
	}
	for g := 1; g <= int(ng); g++ {
		off[g] += off[g-1]
	}
	ge := grow(c.grpEdges, len(c.edges))
	for i := range c.edges { // off[g] runs from group g's start to its end
		g := c.edges[i].group
		ge[off[g]] = int32(i)
		off[g]++
	}
	copy(off[1:], off[:ng])
	off[0] = 0
	c.grpOff, c.grpEdges = off, ge
	c.grpMark = grow(c.grpMark, int(ng))
	c.grpMarked = c.grpMarked[:0]
	c.inScan = grow(c.inScan, len(c.edges))
	for g := int32(0); g < ng; g++ {
		c.regroup(g)
	}
	c.shown = c.shown[:0]
	c.scan = growRows(c.scan, nV)
	for n, row := range c.adj {
		sc := c.scan[n]
		if cap(sc) < len(row) { // room for every entry: compact inserts in place
			sc = make([]adjEnt, 0, len(row)+len(row)/4)
		}
		for _, a := range row {
			if c.inScan[a.edge] {
				sc = append(sc, a)
			}
		}
		c.scan[n] = sc
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

// retire makes an edge unusable for the rest of the solve and marks its
// group for compaction.
func (c *ctx) retire(e *edge) {
	e.viable = false
	c.touch(e)
}

// touch marks e's group for a dominance recompute: e's usability or
// cost has changed.
func (c *ctx) touch(e *edge) {
	if !c.grpMark[e.group] {
		c.grpMark[e.group] = true
		c.grpMarked = append(c.grpMarked, e.group)
	}
}

// regroup recomputes the dominance of group g. A usable edge is
// dominated when an earlier usable, undominated edge of its group —
// the same neighbour, earlier in both endpoint rows — has a c1 and a
// pen that are not higher and a bitrate class that is not lower (equal,
// when SlowBitratePenalty is negative). For every request the earlier
// edge's cost is then not higher (float addition rounds monotonically),
// so once it has relaxed, dist[next] ≤ its nd ≤ the later edge's nd:
// the later edge can never push, and its done test reads the same
// node. Dominance is transitive, so testing only undominated edges
// finds one whenever any earlier edge dominates. An edge that leaves
// the scan marks its rows dirty; one that re-enters it is listed in
// shown.
//
//minkowski:hotpath
func (c *ctx) regroup(g int32) {
	es := c.grpEdges[c.grpOff[g]:c.grpOff[g+1]]
	eqClass := c.cfg.SlowBitratePenalty < 0
	for k, j := range es {
		ej := &c.edges[j]
		in := ej.viable || ej.chosen
		if in {
			cj := &c.cost[j]
			for _, i := range es[:k] {
				ei, ci := &c.edges[i], &c.cost[i]
				if c.inScan[i] && ci.c1 <= cj.c1 && ci.pen <= cj.pen &&
					(ei.class == ej.class || !eqClass && ei.class > ej.class) {
					in = false
					break
				}
			}
		}
		switch {
		case c.inScan[j] && !in:
			c.dirty[ej.a], c.dirty[ej.b] = true, true
		case !c.inScan[j] && in:
			c.shown = append(c.shown, j)
		}
		c.inScan[j] = in
	}
}

// compact brings the scan rows up to date: it recomputes the marked
// groups' dominance, drops from every dirty row, in place and in order,
// the entries that left the scan, and inserts the ones that re-entered
// it at their place in edge order. A missing entry is one the seed's
// scan walks past without a comparison, a push or a pop (unusable), or
// one whose comparison can never push (dominated), so the searches that
// follow do exactly what they would have done over the full row.
//
//minkowski:hotpath
func (c *ctx) compact() {
	for _, g := range c.grpMarked {
		c.grpMark[g] = false
		c.regroup(g)
	}
	c.grpMarked = c.grpMarked[:0]
	for n, d := range c.dirty {
		if !d {
			continue
		}
		c.dirty[n] = false
		row := c.scan[n]
		k := 0
		for _, a := range row {
			if c.inScan[a.edge] {
				row[k] = a
				k++
			}
		}
		c.scan[n] = row[:k]
	}
	for _, j := range c.shown {
		e := &c.edges[j]
		c.scan[e.a] = insertEnt(c.scan[e.a], adjEnt{next: e.b, edge: j})
		c.scan[e.b] = insertEnt(c.scan[e.b], adjEnt{next: e.a, edge: j})
	}
	c.shown = c.shown[:0]
}

// insertEnt inserts a into row at its place in edge order. The row has
// room: group sized it for every entry of its adj row.
func insertEnt(row []adjEnt, a adjEnt) []adjEnt {
	i := sort.Search(len(row), func(k int) bool { return row[k].edge > a.edge })
	return slices.Insert(row, i, a)
}

// run is the optimized solve pipeline: the initial per-request
// routing, the greedy commit loop with its re-routes, the final
// chosen-only routing pass, and the redundancy secondary objective.
func (s *Solver) run(in *Input) *Plan {
	c := &s.c
	c.reset(s.cfg, in)
	nR := len(in.Requests)
	plan := &Plan{Routes: make(map[string][]string, nR)}

	// --- Initial routing phase --------------------------------------
	for ri := range c.reqs {
		c.shortestPath(int32(ri), c.scan)
	}

	// --- Greedy commit loop (seed-identical) -------------------------
	for {
		// Utility, accumulated in the seed's request order. Only edges
		// of current paths get any, so only they are cleared, collected
		// and swept: an entry is 0 until its first visit and never
		// after, as every request adds at least 1.
		util := c.util
		for _, ei := range c.swept {
			util[ei] = 0
		}
		sw := c.swept[:0]
		for ri := range c.reqs {
			uw := c.reqs[ri].util
			for _, ei := range c.paths[ri] {
				if !c.edges[ei].chosen {
					if util[ei] == 0 {
						sw = append(sw, ei)
					}
					util[ei] += uw
				}
			}
		}
		// The seed sweeps every edge in index order; the others have
		// no utility and are skipped, so the same strict > over the
		// path edges in index order picks the same one.
		slices.Sort(sw)
		c.swept = sw
		c.sp.stats.Swept += uint64(len(sw))
		best, bestU := int32(-1), 0.0
		for _, i := range sw {
			e := &c.edges[i]
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
		c.choose(plan, best, false)
		c.compact()
		// Re-route requests whose path lost an edge, plus pathless
		// requests not yet proven permanently unreachable. The
		// reference recomputes EVERY nil-path request each iteration;
		// the engine may skip only the nilKnown ones — a failed search
		// that never hit the hop cap exhausted the source's component,
		// and connectivity is monotone under the shrinking edge set, so
		// the reference's re-run returns the same nil. A cap-pruned
		// failure is NOT permanent (conflict elimination and chosen-edge
		// cost drops reorder pops, so a node can finalize with fewer
		// hops and un-cap a path) and is retried like the reference. A
		// search writes only its own request's path, so deciding and
		// re-routing one request at a time is the reference's batch.
		for ri := range c.reqs {
			if !c.nilKnown[ri] && (!c.has[ri] || c.pathBroken(ri)) {
				c.shortestPath(int32(ri), c.scan)
			}
		}
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
	for ri := range c.reqs {
		if !c.nilKnown[ri] {
			c.shortestPath(int32(ri), c.chosenAdj)
		}
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

// pathBroken reports whether request ri's current path holds an edge
// that is neither viable nor chosen.
func (c *ctx) pathBroken(ri int) bool {
	for _, ei := range c.paths[ri] {
		if e := &c.edges[ei]; !e.viable && !e.chosen {
			return true
		}
	}
	return false
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
	c.touch(e)
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
