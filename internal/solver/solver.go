// Package solver implements the TS-SDN topology solver of §3.1 and
// Appendix B: given the candidate graph from the Link Evaluator, the
// set of connectivity requests, and the currently installed links, it
// greedily selects the set of links (transceiver pairs + channels) to
// enact, maximizing the utility of satisfiable connectivity requests
// subject to the logical constraints:
//
//   - each transceiver pairs with at most one other transceiver,
//   - paired transceivers use non-interfering channels (no channel
//     reuse at a platform),
//   - hysteresis biases toward keeping established links ("we biased
//     toward the selection of high utility links and dampened the
//     rate of change by biasing toward topologies that kept
//     established links"),
//   - marginal links are penalized but usable when nothing better
//     exists,
//   - as a secondary objective, otherwise-idle transceivers are
//     tasked with redundant links to speed failover (§3.2).
//
// The algorithm is the Appendix B iterative greedy: estimate the
// utility of all viable links by routing each request over the viable
// graph, repeatedly commit the highest-utility link, and mark
// incompatible links inviable until no viable link carries positive
// utility.
//
// Solve runs the one production implementation (engine.go,
// dijkstra.go): index arrays, reusable scratch, a concrete frontier
// heap and per-request Dijkstra batches fanned out one goroutine per
// core. The seed's literal map-based single-threaded algorithm
// survives as SolveReference in reference_test.go, the ground truth
// the equivalence tests hold Solve to byte for byte at every fan-out
// width (DESIGN.md §10). A solve is a pure function of its Input: the
// only thing carried from one cycle to the next is Input.Existing.
package solver

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"minkowski/internal/linkeval"
	"minkowski/internal/radio"
	"minkowski/internal/rf"
)

// Request is one connectivity request c_{x→y}: the LTE stack asking
// for backhaul from a balloon to the ground segment.
type Request struct {
	// ID names the request ("backhaul/hbal-001"); Plan.Routes is keyed
	// by it, so IDs must be unique within one Input.
	ID string
	// Src is the requesting node.
	Src string
	// Dst is the target node, or empty for "any gateway".
	Dst string
	// MinBitrateBps is b_min.
	MinBitrateBps float64
}

// Input is everything one solve cycle consumes.
type Input struct {
	// Candidates is the Link Evaluator's current candidate graph. It is
	// read during the solve only: the plan copies the reports it chose.
	Candidates []*linkeval.Report
	// Requests are the open connectivity requests.
	Requests []Request
	// Existing marks currently installed links (hysteresis input:
	// "the chosen topology of the previous time slice was also input,
	// and used to prioritize candidate topologies that minimized
	// disruption").
	Existing map[radio.LinkID]bool
	// Gateways are ground-station node IDs (targets for Dst == "").
	Gateways []string
	// Drained nodes are excluded from carrying or terminating new
	// links (Appendix C's administrative drains).
	Drained map[string]bool
	// Penalties adds per-candidate path cost from the adaptive
	// feedback loop (§7 future work: "conditioning link selection on
	// physical models augmented with enactment success rate ... would
	// improve performance"). Pairs that recently failed to establish
	// are deprioritized so the solver tries alternates instead of
	// hammering a cursed pair.
	Penalties map[radio.LinkID]float64
}

// Chosen is one link in the output plan.
type Chosen struct {
	// Report is the plan's own copy of the chosen candidate.
	Report *linkeval.Report
	// Channel is the non-interfering channel assignment.
	Channel rf.Channel
	// Redundant marks links added by the secondary objective rather
	// than primary routing.
	Redundant bool
	// KeptFromPrevious marks hysteresis retentions.
	KeptFromPrevious bool
}

// Plan is a solve cycle's output.
type Plan struct {
	// Links to enact (or keep), sorted by link ID.
	Links []Chosen
	// Routes maps request ID → node path for satisfied requests.
	Routes map[string][]string
	// Unsatisfied lists requests with no feasible path.
	Unsatisfied []Request
	// Utility is the total satisfied bitrate (the objective value).
	Utility float64
}

// ChosenIDs returns the set of planned link IDs.
func (p *Plan) ChosenIDs() map[radio.LinkID]bool {
	out := make(map[radio.LinkID]bool, len(p.Links))
	for _, c := range p.Links {
		out[c.Report.ID] = true
	}
	return out
}

// RedundantCount returns how many planned links are redundancy adds.
func (p *Plan) RedundantCount() int {
	n := 0
	for _, c := range p.Links {
		if c.Redundant {
			n++
		}
	}
	return n
}

// Fingerprint renders every output-relevant field of the plan into a
// canonical string, so equality of fingerprints is byte-identity of
// plans. Used by the equivalence tests and the end-to-end determinism
// checks.
func (p *Plan) Fingerprint() string {
	var b strings.Builder
	for _, c := range p.Links {
		b.WriteString("L ")
		b.WriteString(c.Report.ID.A)
		b.WriteByte('|')
		b.WriteString(c.Report.ID.B)
		b.WriteString(" ch=")
		b.WriteString(strconv.Itoa(c.Channel.ID))
		if c.Redundant {
			b.WriteString(" red")
		}
		if c.KeptFromPrevious {
			b.WriteString(" kept")
		}
		b.WriteByte('\n')
	}
	ids := make([]string, 0, len(p.Routes))
	for id := range p.Routes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		b.WriteString("R ")
		b.WriteString(id)
		b.WriteString(" =")
		for _, n := range p.Routes[id] {
			b.WriteByte(' ')
			b.WriteString(n)
		}
		b.WriteByte('\n')
	}
	for _, r := range p.Unsatisfied {
		b.WriteString("U ")
		b.WriteString(r.ID)
		b.WriteByte('\n')
	}
	b.WriteString("util=")
	b.WriteString(strconv.FormatUint(math.Float64bits(p.Utility), 16))
	b.WriteByte('\n')
	return b.String()
}

// Config tunes the solver.
type Config struct {
	// HysteresisBonus multiplies the utility of existing links
	// (0 = no hysteresis; 0.5 = 50% bonus for keeping a link).
	HysteresisBonus float64
	// MarginalPenalty is extra path cost for marginal links.
	MarginalPenalty float64
	// NewLinkCost is the path cost of a not-yet-chosen candidate;
	// ExistingLinkCost applies to installed links (cheaper —
	// hysteresis); ChosenLinkCost to links already committed this
	// cycle.
	NewLinkCost, ExistingLinkCost, ChosenLinkCost float64
	// SlowBitratePenalty is extra cost when a link can't carry a
	// request's full bitrate.
	SlowBitratePenalty float64
	// RedundancyTargetFrac is the fraction of possible redundant
	// links (Appendix A) the secondary objective aims to task (the
	// paper intended ~70% at median).
	RedundancyTargetFrac float64
	// MaxPathLen bounds route length in hops.
	MaxPathLen int
}

// DefaultConfig returns the production policy.
func DefaultConfig() Config {
	return Config{
		HysteresisBonus:      1.5,
		MarginalPenalty:      3.0,
		NewLinkCost:          2.2,
		ExistingLinkCost:     1.0,
		ChosenLinkCost:       0.8,
		SlowBitratePenalty:   5.0,
		RedundancyTargetFrac: 0.7,
		MaxPathLen:           12,
	}
}

// Solver runs solve cycles. It owns the engine's scratch arenas, so a
// Solver is NOT safe for concurrent use — one Solver per control
// loop. (The parallelism inside a solve is the engine's own worker
// fan-out, one goroutine per core.)
type Solver struct {
	cfg   Config
	c     ctx
	stats Stats
}

// Stats counts the shortest-path work of every solve since construction
// (cumulative; the controller attaches per-cycle deltas to its solve
// span). The counts are sums over requests, so they are the same at any
// fan-out width.
type Stats struct {
	// DijkstraRuns is the number of shortest-path searches started.
	DijkstraRuns uint64
	// AdjScanned is the number of adjacency entries walked while
	// expanding popped nodes.
	AdjScanned uint64
	// HeapPushes and HeapPops are the frontier operations.
	HeapPushes, HeapPops uint64
}

func (s *Stats) add(o Stats) {
	s.DijkstraRuns += o.DijkstraRuns
	s.AdjScanned += o.AdjScanned
	s.HeapPushes += o.HeapPushes
	s.HeapPops += o.HeapPops
}

// Sub returns s − o field-wise (for per-cycle deltas).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		DijkstraRuns: s.DijkstraRuns - o.DijkstraRuns,
		AdjScanned:   s.AdjScanned - o.AdjScanned,
		HeapPushes:   s.HeapPushes - o.HeapPushes,
		HeapPops:     s.HeapPops - o.HeapPops,
	}
}

// Stats returns the cumulative work counters.
func (s *Solver) Stats() Stats { return s.stats }

// New creates a solver.
func New(cfg Config) *Solver { return &Solver{cfg: cfg} }

// Solve runs one cycle.
//
//minkowski:hotpath
func (s *Solver) Solve(in Input) *Plan { return s.run(&in) }

// Warm is the empty remnant of the deleted warm-start state.
//
// Deprecated: kept only because bench/e2e/trace.go, which this tree may
// not edit, still names it; delete with its two call sites there.
type Warm struct{}

// NewWarm returns an empty Warm.
//
// Deprecated: see Warm.
func NewWarm() *Warm { return &Warm{} }

// SolveWarm is Solve; the second argument is ignored.
//
// Deprecated: see Warm.
func (s *Solver) SolveWarm(in Input, _ *Warm) *Plan { return s.Solve(in) }

// RedundancyBounds returns Appendix A's L_min and L_max for a
// topology of B balloons (3 transceivers each) and G ground stations
// (2 transceivers each): L_min = B (each balloon needs a route) and
// L_max = floor((2G + 3B) / 2).
func RedundancyBounds(b, g int) (lmin, lmax int) {
	return RedundancyBoundsN(b, g, 3)
}

// RedundancyBoundsN generalizes Appendix A to k transceivers per
// balloon (the §3.2 transceiver-count study): L_min = B and
// L_max = floor((2G + kB) / 2).
func RedundancyBoundsN(b, g, xcvrsPerBalloon int) (lmin, lmax int) {
	return b, (2*g + xcvrsPerBalloon*b) / 2
}

// RedundancyFraction is Appendix A's utilization metric:
// (L − L_min) / (L_max − L_min), clamped to [0, 1]; NaN when the
// formula degenerates.
func RedundancyFraction(links, balloons, grounds int) float64 {
	lmin, lmax := RedundancyBounds(balloons, grounds)
	if lmax <= lmin {
		return math.NaN()
	}
	f := float64(links-lmin) / float64(lmax-lmin)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
