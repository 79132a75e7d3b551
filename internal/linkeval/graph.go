package linkeval

import (
	"slices"
	"strings"

	"minkowski/internal/platform"
)

// This file is the candidate-graph pipeline (DESIGN.md §7): every
// cross-platform pair enumerated directly — the fleets this controller
// runs fit inside one MaxRangeM neighbourhood, so there is nothing for
// a spatial index to prune — with three layers of work-sharing on top
// of the same staged pipeline EvaluatePair runs:
//
//  1. Per platform: each is predicted once per graph, and its ECEF
//     point and local ENU frame (a site) are built once, so the
//     trigonometry of a position is paid once per platform, not once
//     per pair it takes part in.
//  2. Per platform pair: the exact slant-range gate runs once, before
//     any transceiver pair is touched, and both pointings are aimed
//     from the sites' frames.
//  3. Per platform pair, the rest of the geometry (the model's pointing
//     verdict per mount, line of sight, path attenuation along the
//     chord between the sites, budgets per gain pair) is memoized in a
//     pairGeom shared by its transceiver pairs.
//
// No result is carried from one graph to the next: every call evaluates
// every in-range pair, on the calling goroutine. Only the storage is
// kept: reports are written into slabs and the graph slice into a
// reused array, both owned by the evaluator and overwritten by its next
// call, so a steady-state graph allocates nothing.
//
// Bit-identity with the brute-force oracle (graph_test.go) rests on
// two invariants:
//
//   - Argument orientation: the oracle evaluates (xcvrs[i], xcvrs[j])
//     with i<j, and pointing / line-of-sight / attenuation are
//     direction-dependent in their floating-point evaluation. pairGeom
//     therefore memoizes both orientations separately and every pair
//     is evaluated with the lower-slice-index transceiver first,
//     reproducing the oracle's argument order exactly.
//   - Emission order: node IDs order their transceiver IDs (the '/'
//     separating node from transceiver suffix sorts below every
//     alphanumeric), so walking anchor platforms in ID order, anchor
//     transceivers sorted, partner platforms sorted, partner
//     transceivers sorted, emits reports already globally sorted by
//     (ID.A, ID.B) — no final sort needed. The walk is anchor-
//     transceiver-major, so an anchor's platform-pair geometries are
//     all built before its first transceiver is evaluated.

// nodeEnt is one platform in the graph being built.
type nodeEnt struct {
	node *platform.Node
	site site
	xc   []int32 // indices into the xcvrs slice, sorted by transceiver ID
}

// slabReports is the size of one report slab. The slab list grows to
// the high-water candidate count rounded up to this and stays there, so
// the figure bounds the memory held beyond need.
const slabReports = 64

// graphScratch holds every reusable buffer of the evaluator: the
// returned graph, the reports it points to — in fixed-size slabs that
// are refilled from the first on every graph (a full slab is followed
// by the next, never regrown, so no *Report moves while its graph is
// valid) — and the platform-pair geometries of the anchor in hand.
type graphScratch struct {
	out      []*Report
	slabs    [][]Report
	cur, off int // the next free report is slabs[cur][off]
	nodes    []nodeEnt
	nodeIdx  map[*platform.Node]int32
	order    []int32
	geoms    []pairGeom // per partner platform; each keeps its budget memo's backing
}

// newReport returns the next report slot. It allocates only while the
// graph is larger than any before it.
func (s *graphScratch) newReport() *Report {
	if s.off == slabReports {
		s.cur, s.off = s.cur+1, 0
	}
	if s.cur == len(s.slabs) {
		s.slabs = append(s.slabs, make([]Report, slabReports))
	}
	r := &s.slabs[s.cur][s.off]
	s.off++
	return r
}

// CandidateGraph evaluates all cross-platform transceiver pairs at a
// lead time and returns the feasible candidates sorted by ID.
//
// The graph — the slice and every report it points to — lives in
// storage the evaluator owns and its next CandidateGraph call
// overwrites: a graph is valid until the evaluator's next call; keep
// what you need by value.
func (e *Evaluator) CandidateGraph(xcvrs []*platform.Transceiver, lead float64) []*Report {
	scr := &e.scr
	e.stats.Graphs++

	// --- Group transceivers by platform, predict once per platform.
	if scr.nodeIdx == nil {
		scr.nodeIdx = make(map[*platform.Node]int32, 64)
	}
	clear(scr.nodeIdx)
	scr.nodes = scr.nodes[:0]
	for i, x := range xcvrs {
		idx, ok := scr.nodeIdx[x.Node]
		if !ok {
			idx = int32(len(scr.nodes))
			if cap(scr.nodes) > len(scr.nodes) {
				scr.nodes = scr.nodes[:idx+1]
				scr.nodes[idx].node = x.Node
				scr.nodes[idx].xc = scr.nodes[idx].xc[:0]
			} else {
				scr.nodes = append(scr.nodes, nodeEnt{node: x.Node})
			}
			scr.nodeIdx[x.Node] = idx
		}
		scr.nodes[idx].xc = append(scr.nodes[idx].xc, int32(i))
	}
	nodes := scr.nodes
	for i := range nodes {
		n := &nodes[i]
		slices.SortFunc(n.xc, func(a, b int32) int { return strings.Compare(xcvrs[a].ID, xcvrs[b].ID) })
		n.site = siteAt(e.Predict(n.node, lead))
	}

	// Anchor platforms in node-ID order.
	order := scr.order[:0]
	for i := range nodes {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(nodes[a].node.ID, nodes[b].node.ID) })
	scr.order = order

	// --- Per anchor, gate and set up every platform pair it leads (its
	// partners are the platforms after it in ID order), then evaluate
	// its transceiver pairs in emission order.
	scr.cur, scr.off = 0, 0
	out := scr.out[:0]
	for i, u := range order {
		ue := &nodes[u]
		partners := order[i+1:]
		if len(scr.geoms) < len(partners) {
			scr.geoms = append(scr.geoms, make([]pairGeom, len(partners)-len(scr.geoms))...)
		}
		geoms := scr.geoms[:len(partners)]
		for k, v := range partners {
			ve := &nodes[v]
			// Exact range gate, on geo.SlantRange's bits.
			geoms[k] = e.newPairGeom(&ue.site, &ve.site, geoms[k].points[:0], geoms[k].budgets[:0])
			pairs := uint64(len(ue.xc) * len(ve.xc))
			e.stats.PairsEnumerated += pairs
			if geoms[k].dist > e.cfg.MaxRangeM {
				e.stats.RangePruned += pairs
			} else {
				e.stats.ReEvals += pairs
			}
		}
		for _, xai := range ue.xc {
			for k, v := range partners {
				g := &geoms[k]
				if g.dist > e.cfg.MaxRangeM {
					continue
				}
				for _, xbi := range nodes[v].xc {
					// Reproduce the oracle's argument order: the
					// lower-slice-index transceiver leads.
					a, b, orient := xai, xbi, 0
					if xbi < xai {
						a, b, orient = xbi, xai, 1
					}
					if r, _, _ := e.evalStaged(xcvrs[a], xcvrs[b], lead, g, orient, scr); r != nil {
						out = append(out, r)
					}
				}
			}
		}
	}
	scr.out = out
	return out
}
