package linkeval

import (
	"runtime"
	"slices"
	"strings"
	"sync"

	"minkowski/internal/geo"
	"minkowski/internal/platform"
)

// This file is the candidate-graph pipeline (DESIGN.md §7): every
// cross-platform pair enumerated directly — the fleets this controller
// runs fit inside one MaxRangeM neighbourhood, so there is nothing for
// a spatial index to prune — with two layers of work-sharing on top of
// the same staged pipeline EvaluatePair runs:
//
//  1. Platforms are predicted once per graph; the exact slant-range
//     gate runs once per platform pair, before any transceiver pair is
//     touched.
//  2. Per platform pair, geometry (range, both pointing solutions,
//     line of sight, path attenuation, budgets per gain pair) is
//     memoized in a pairGeom shared by the transceiver fan-out.
//
// No result is carried from one graph to the next: every call evaluates
// every in-range pair. Only the storage is kept: reports are written
// into per-worker slabs and the graph slice into the slot array, both
// owned by the evaluator and overwritten by its next call, so a
// steady-state graph allocates nothing but the goroutine fan-out.
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
//     (ID.A, ID.B) — no final sort needed. Each pair's result slot is
//     precomputed from that layout, which also makes the parallel
//     fan-out race-free: workers write disjoint slots.

// nodeEnt is one platform in the graph being built.
type nodeEnt struct {
	node *platform.Node
	pos  geo.LLA
	ecef geo.Vec3
	xc   []int32 // indices into the xcvrs slice, sorted by transceiver ID
}

// npTask is one platform pair, with the precomputed result-slot
// layout: the pair (anchor transceiver a, partner transceiver b) lands
// at base + aIdx·partnerTotal + prefix + bIdx.
type npTask struct {
	u, v         int32 // node indices; nodes[u].ID < nodes[v].ID
	base         int32 // slot base of anchor u's whole span
	prefix       int32 // partner-transceiver prefix of v within u's span
	partnerTotal int32 // total partner transceivers across all of u's tasks
}

// graphScratch holds every reusable buffer of the evaluator, the
// returned graph (results, compacted in place) and its reports (the
// workers' slabs) included.
type graphScratch struct {
	results []*Report
	nodes   []nodeEnt
	nodeIdx map[*platform.Node]int32
	order   []int32
	tasks   []npTask
	workers []evalScratch
}

func (e *Evaluator) resizeResults(n int) []*Report {
	if cap(e.scr.results) < n {
		e.scr.results = make([]*Report, n)
	}
	e.scr.results = e.scr.results[:n]
	clear(e.scr.results)
	return e.scr.results
}

// workerCount is the fan-out width for a batch of tasks: one worker
// per core, never more than there are tasks.
func workerCount(tasks int) int {
	//minkowski:dettaint-ok read once per fan-out entry; workers write disjoint slots and results merge in index order, so output is byte-identical for any value
	workers := runtime.GOMAXPROCS(0)
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// CandidateGraph evaluates all cross-platform transceiver pairs at a
// lead time and returns the feasible candidates sorted by ID. The work
// fans out across one goroutine per core.
//
// The graph — the slice and every report it points to — lives in
// storage the evaluator owns and its next CandidateGraph call
// overwrites: a graph is valid until the evaluator's next call; keep
// what you need by value.
//
//minkowski:hotpath
func (e *Evaluator) CandidateGraph(xcvrs []*platform.Transceiver, lead float64) []*Report {
	scr := &e.scr
	e.stats.Graphs++

	// --- Group transceivers by platform, predict once per platform.
	if scr.nodeIdx == nil {
		//minkowski:hotpath-ok built on the first call only, then cleared and reused
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
		n.pos = e.Predict(n.node, lead)
		n.ecef = n.pos.ToECEF()
	}

	// Anchor platforms in node-ID order.
	order := scr.order[:0]
	for i := range nodes {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(nodes[a].node.ID, nodes[b].node.ID) })
	scr.order = order

	// --- Enumerate platform pairs, laying out result slots in emission
	// order so the graph comes out sorted with no final sort. An
	// anchor's partners are the platforms after it in ID order.
	tasks := scr.tasks[:0]
	slotBase := int32(0)
	partnerTotal := int32(len(xcvrs))
	for i, u := range order {
		anchorXc := int32(len(nodes[u].xc))
		partnerTotal -= anchorXc
		prefix := int32(0)
		for _, v := range order[i+1:] {
			tasks = append(tasks, npTask{u: u, v: v, base: slotBase, prefix: prefix, partnerTotal: partnerTotal})
			prefix += int32(len(nodes[v].xc))
		}
		slotBase += anchorXc * partnerTotal
	}
	scr.tasks = tasks // workers read the field: capturing the appended-to local would move it to the heap
	// One slot per enumerated transceiver pair.
	e.stats.PairsEnumerated += uint64(slotBase)

	results := e.resizeResults(int(slotBase))

	// --- Parallel fan-out over platform-pair tasks. Workers write
	// disjoint result slots and count locally; stats are summed
	// serially after the join.
	workers := workerCount(len(tasks))
	for len(scr.workers) < workers {
		scr.workers = append(scr.workers, evalScratch{})
	}
	for w := range scr.workers {
		scr.workers[w].cur, scr.workers[w].off = 0, 0
	}
	if workers <= 1 {
		st := &scr.workers[0]
		for _, t := range tasks {
			e.runTask(t, lead, st, xcvrs)
		}
	} else {
		var wg sync.WaitGroup
		chunk := (len(tasks) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > len(tasks) {
				hi = len(tasks)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi, w int) {
				defer wg.Done()
				st := &e.scr.workers[w]
				for _, t := range e.scr.tasks[lo:hi] {
					e.runTask(t, lead, st, xcvrs)
				}
			}(lo, hi, w)
		}
		wg.Wait()
	}
	for w := 0; w < workers; w++ {
		st := &scr.workers[w]
		e.stats.RangePruned += st.stats.RangePruned
		e.stats.ReEvals += st.stats.ReEvals
		st.stats = Stats{}
	}

	// --- Emit: slots are already in (ID.A, ID.B) order; close the gaps
	// in place.
	n := 0
	for _, r := range results {
		if r != nil {
			results[n] = r
			n++
		}
	}
	return results[:n]
}

// runTask evaluates every transceiver pair of one platform pair.
//
//minkowski:hotpath
func (e *Evaluator) runTask(t npTask, lead float64, st *evalScratch, xcvrs []*platform.Transceiver) {
	ue := &e.scr.nodes[t.u]
	ve := &e.scr.nodes[t.v]
	results := e.scr.results
	// Exact range gate; bitwise equal to geo.SlantRange on the same
	// predicted positions (negating a difference vector does not
	// change its norm).
	dist := ve.ecef.Sub(ue.ecef).Norm()
	if dist > e.cfg.MaxRangeM {
		st.stats.RangePruned += uint64(len(ue.xc) * len(ve.xc))
		return
	}
	g := pairGeom{posA: ue.pos, posB: ve.pos, dist: dist, budgets: st.budgets[:0]}
	for ai, xai := range ue.xc {
		for bi, xbi := range ve.xc {
			slot := t.base + int32(ai)*t.partnerTotal + t.prefix + int32(bi)
			// Reproduce the oracle's argument order: the
			// lower-slice-index transceiver leads.
			a, b, orient := xai, xbi, 0
			if xbi < xai {
				a, b, orient = xbi, xai, 1
			}
			results[slot], _, _ = e.evalStaged(xcvrs[a], xcvrs[b], lead, &g, orient, st)
			st.stats.ReEvals++
		}
	}
	st.budgets = g.budgets // keep what the memo grew to
}
