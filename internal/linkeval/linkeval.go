// Package linkeval implements the TS-SDN's Link Evaluator (§3.1):
// the component that "continuously analyzed candidate links between
// all pairs of transceivers at multiple time steps in the future, up
// to a configurable time horizon."
//
// For each pair of antennas it prunes on field-of-view and
// line-of-sight, computes the attenuation along the transmission
// vector from the TS-SDN's (estimated!) weather model, evaluates the
// link budget at each transmit power, and annotates links just below
// the acceptable margin as "marginal". The output — the candidate
// graph — is the solver's main input and the subject of Fig. 4's
// churn analysis.
//
// One pipeline produces the graph (graph.go, DESIGN.md §7): every
// cross-platform pair is enumerated (the paper's "all pairs of
// transceivers"), range-gated once per platform pair, and evaluated
// with per-platform-pair geometry and attenuation shared across its
// transceiver pairs, on the calling goroutine. A brute-force sweep
// that evaluates every pair from scratch survives in graph_test.go as
// the oracle the pipeline is held to bit for bit under randomized
// wind. No result is carried from one call to the next; only the
// storage a graph lives in is (see CandidateGraph).
package linkeval

import (
	"minkowski/internal/antenna"
	"minkowski/internal/geo"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/rf"
	"minkowski/internal/weather"
)

// PositionPredictor returns a node's estimated position at a lead
// time (seconds into the future). The core controller wires this to
// the FMS's trajectory predictions; lead 0 must return the current
// (GPS-reported) position. Predictions must be deterministic: the
// evaluator predicts once per platform per graph and shares the
// result across every pair the platform participates in.
type PositionPredictor func(n *platform.Node, lead float64) geo.LLA

// CurrentPositions is the trivial predictor: nodes frozen at their
// current position (adequate for short leads; the paper notes
// trajectory error as a model-error source).
func CurrentPositions(n *platform.Node, lead float64) geo.LLA { return n.Position() }

// Report is one Transceiver Link Report: the forecasted performance
// of one candidate link at one future time step (the artifact
// appendix's link_reports table). A *Report taken from a candidate
// graph points into the evaluator's storage and is valid until that
// evaluator's next CandidateGraph call; keep what you need by value.
type Report struct {
	// ID is the canonical link identity.
	ID radio.LinkID
	// XA, XB are the evaluated transceivers.
	XA, XB *platform.Transceiver
	// Lead is seconds into the future this report describes.
	Lead float64
	// Budget is the modelled link budget at the best transmit power.
	Budget rf.Budget
	// Class annotates margin acceptability (the "marginal" flag).
	Class rf.MarginClass
	// DistM is the predicted slant range.
	DistM float64
	// AtmosDB is the modelled path attenuation from weather.
	AtmosDB float64
	// B2G marks balloon-to-ground candidates.
	B2G bool
}

// Config tunes evaluation.
type Config struct {
	// AcceptableMarginDB is the configured margin for full
	// acceptance; links within rf.MarginalWindowDB below it are
	// "marginal".
	AcceptableMarginDB float64
	// MaxRangeM hard-prunes pairs beyond plausible budget closure to
	// save computation.
	MaxRangeM float64
	// Channel is the representative channel used for evaluation (the
	// solver assigns concrete channels later).
	Channel rf.Channel
	// DropMarginal discards marginal candidates instead of retaining
	// them penalized (the §3.1 marginal-retention ablation).
	DropMarginal bool
	// PessimismDB is the deliberate planning margin added to modelled
	// attenuation: Loon "intentionally selected a pessimistic level
	// from the ITU-R regional seasonal average model to increase
	// confidence in forming the selected links", visible as the
	// +4.3 dB right-shift of Fig. 10.
	PessimismDB float64
}

// DefaultConfig returns the evaluation policy used in production
// scenarios.
func DefaultConfig() Config {
	return Config{
		AcceptableMarginDB: 3,
		MaxRangeM:          900e3,
		Channel:            rf.EBandChannels()[0],
		PessimismDB:        4.3,
	}
}

// Stats counts evaluator work since construction (cumulative). The
// controller surfaces the per-cycle deltas through its solve-cycle
// telemetry.
type Stats struct {
	// Graphs is the number of CandidateGraph evaluations.
	Graphs uint64
	// PairsEnumerated is every cross-platform transceiver pair of the
	// graphs built.
	PairsEnumerated uint64
	// RangePruned counts enumerated pairs gated by the exact slant
	// range check, one platform pair at a time.
	RangePruned uint64
	// ReEvals counts pair evaluations run through the staged pipeline
	// (enumerated pairs that passed the exact range gate).
	ReEvals uint64
}

// Sub returns s − o field-wise (for per-cycle deltas).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Graphs:          s.Graphs - o.Graphs,
		PairsEnumerated: s.PairsEnumerated - o.PairsEnumerated,
		RangePruned:     s.RangePruned - o.RangePruned,
		ReEvals:         s.ReEvals - o.ReEvals,
	}
}

// Evaluator computes candidate graphs, each on the calling goroutine.
// It is not safe for concurrent use (the graph's own storage is
// reused). No result is carried between calls: only the work counters
// and the storage the next graph overwrites are kept.
type Evaluator struct {
	cfg Config
	// Weather is the TS-SDN's *estimated* moisture model (fused
	// gauges/forecast/climatology) — NOT the truth.
	Weather weather.Source
	// Predict supplies positions at future leads.
	Predict PositionPredictor
	// PredictBatch is never read.
	//
	// Deprecated: its one reader, Horizon, is gone. Kept only because
	// bench/e2e/trace.go copies the field and bench/ is frozen.
	PredictBatch func(n *platform.Node, leads []float64) []geo.LLA

	stats Stats
	scr   graphScratch
}

// New creates an evaluator.
func New(cfg Config, wx weather.Source, predict PositionPredictor) *Evaluator {
	if predict == nil {
		predict = CurrentPositions
	}
	return &Evaluator{cfg: cfg, Weather: wx, Predict: predict}
}

// Config returns the evaluation policy.
func (e *Evaluator) Config() Config { return e.cfg }

// BumpWeatherEpoch does nothing.
//
// Deprecated: the evaluation cache it invalidated is gone. Kept only
// because bench/e2e/trace.go calls it and bench/ is frozen; delete it
// together with that call.
func (e *Evaluator) BumpWeatherEpoch() {}

// Stats returns the cumulative work counters.
func (e *Evaluator) Stats() Stats { return e.stats }

// --- Shared staged pipeline -----------------------------------------

// Stage identifies the first check a candidate pair failed; StageOK
// means a report was produced. EvaluatePair, Reject, and the
// candidate-graph pipeline all run this one pipeline so accept and
// explain paths can never drift apart.
type Stage int

const (
	// StageOK produced a report.
	StageOK Stage = iota
	// StageSamePlatform pairs two transceivers on one node.
	StageSamePlatform
	// StageRange is beyond MaxRangeM.
	StageRange
	// StagePointA: the first transceiver cannot point at the second.
	StagePointA
	// StagePointB: the second transceiver cannot point back.
	StagePointB
	// StageLOS: the Earth obstructs the path.
	StageLOS
	// StageBudget: the link budget does not close acceptably.
	StageBudget
	// StageMarginalDropped: closed marginal but DropMarginal is set.
	StageMarginalDropped
)

// pairGeom memoizes the platform-pair-level geometry shared by every
// transceiver pair between two nodes: slant range, both pointing
// solutions, the pointing verdicts per mount, line-of-sight, path
// attenuation, and link budgets per distinct gain pair. Orientation
// slot 0 evaluates A→B argument order, slot 1 B→A, so memoized values
// are bit-identical to the standalone per-pair computation regardless
// of which transceiver leads.
type pairGeom struct {
	ecefA, ecefB geo.Vec3
	dist         float64
	ptAB, ptBA   geo.Pointing // pointing from A at B, and from B at A
	points       []pointMemo
	los          [2]int8 // 0 unknown, +1 clear, −1 blocked
	atmosOK      [2]bool
	atmos        [2]float64
	budgets      []budgetMemo
}

// site is one platform's predicted position in the two forms the pair
// geometry works in: its ECEF point, and the local ENU frame its
// antennas aim from.
type site struct {
	ecef  geo.Vec3
	frame geo.ENU
}

func siteAt(p geo.LLA) site { return site{ecef: p.ToECEF(), frame: geo.NewENU(p)} }

// newPairGeom sets up the geometry between two sites, reusing the
// memos' backing arrays. Every pair inside the range gate needs both
// pointings, so they are solved here, and only for such a pair.
func (e *Evaluator) newPairGeom(a, b *site, points []pointMemo, budgets []budgetMemo) pairGeom {
	// Bitwise equal to geo.SlantRange on the same positions (negating
	// a difference vector does not change its norm).
	g := pairGeom{ecefA: a.ecef, ecefB: b.ecef, dist: b.ecef.Sub(a.ecef).Norm(), points: points, budgets: budgets}
	if g.dist > e.cfg.MaxRangeM {
		return g
	}
	g.ptAB = geo.PointingFrom(&a.frame, b.ecef)
	g.ptBA = geo.PointingFrom(&b.frame, a.ecef)
	return g
}

// pointMemo caches one CanPointModel verdict per (mount, side): a
// mount on A aims along ptAB, one on B along ptBA, and the verdict
// depends on nothing else, so each mount is judged once per platform
// pair instead of once per partner transceiver.
type pointMemo struct {
	mount *antenna.Mount
	side  int // 0: the mount is on A; 1: on B
	ok    bool
	why   string
}

// canPoint returns the model's verdict for a mount on the given side.
func (g *pairGeom) canPoint(m *antenna.Mount, side int) (bool, string) {
	for i := range g.points {
		if p := &g.points[i]; p.mount == m && p.side == side {
			return p.ok, p.why
		}
	}
	pt := g.ptAB
	if side == 1 {
		pt = g.ptBA
	}
	ok, why := m.CanPointModel(pt)
	g.points = append(g.points, pointMemo{mount: m, side: side, ok: ok, why: why})
	return ok, why
}

// budgetMemo caches one BestBudget result per (orientation, gain
// pair, radio) — transceivers on a platform usually share identical
// radios and antenna patterns, collapsing the 3×3 pair fan-out to a
// single budget computation.
type budgetMemo struct {
	orient       int
	peakA, peakB float64
	noiseFigure  float64
	txPowers     []float64
	budget       rf.Budget
	class        rf.MarginClass
}

// evalStaged runs the staged feasibility pipeline for one oriented
// transceiver pair. orient selects which geom side xa sits on (0: xa
// at posA). geom memoizes platform-pair work; a fresh geom per call
// reproduces the standalone evaluation exactly. A report is written
// into s's slabs, or freshly allocated when s is nil. The returned
// detail carries the blocking occlusion label for the pointing stages.
func (e *Evaluator) evalStaged(xa, xb *platform.Transceiver, lead float64, g *pairGeom, orient int, s *graphScratch) (*Report, Stage, string) {
	if g.dist > e.cfg.MaxRangeM {
		return nil, StageRange, ""
	}
	// The evaluator plans with the TS-SDN's obstruction *model*, not
	// the physical truth — stale masks produce surprise failures. xa
	// sits on side orient, xb on the other.
	if ok, why := g.canPoint(xa.Mount, orient); !ok {
		return nil, StagePointA, why
	}
	if ok, why := g.canPoint(xb.Mount, 1-orient); !ok {
		return nil, StagePointB, why
	}
	from, to := g.ecefA, g.ecefB
	if orient == 1 {
		from, to = to, from
	}
	if g.los[orient] == 0 {
		if geo.GrazingAltitudeECEF(from, to) >= 0 {
			g.los[orient] = 1
		} else {
			g.los[orient] = -1
		}
	}
	if g.los[orient] < 0 {
		return nil, StageLOS, ""
	}
	if !g.atmosOK[orient] {
		g.atmos[orient] = weather.EstimateChordAttenuation(e.Weather, e.cfg.Channel.CenterGHz, geo.Chord(from, to))
		g.atmosOK[orient] = true
	}
	atmos := g.atmos[orient] + e.cfg.PessimismDB
	peakA, peakB := xa.Mount.Pattern.PeakDBi, xb.Mount.Pattern.PeakDBi
	var budget rf.Budget
	var class rf.MarginClass
	memoHit := false
	for i := range g.budgets {
		m := &g.budgets[i]
		// Budget-memo key: an entry serves only bit-identical gain, noise and
		// power inputs.
		if m.orient == orient && m.peakA == peakA && m.peakB == peakB &&
			m.noiseFigure == xa.Radio.NoiseFigureDB && floatsEqual(m.txPowers, xa.Radio.TxPowersDBm) {
			budget, class = m.budget, m.class
			memoHit = true
			break
		}
	}
	if !memoHit {
		budget = rf.BestBudget(xa.Radio, e.cfg.Channel, peakA, peakB, g.dist, atmos, 1.0)
		class = rf.Classify(budget, e.cfg.AcceptableMarginDB)
		g.budgets = append(g.budgets, budgetMemo{
			orient: orient, peakA: peakA, peakB: peakB,
			noiseFigure: xa.Radio.NoiseFigureDB, txPowers: xa.Radio.TxPowersDBm,
			budget: budget, class: class,
		})
	}
	if class == rf.Unusable {
		return nil, StageBudget, ""
	}
	if class == rf.Marginal && e.cfg.DropMarginal {
		return nil, StageMarginalDropped, ""
	}
	var rep *Report
	if s != nil {
		rep = s.newReport()
	} else {
		rep = &Report{}
	}
	*rep = Report{
		ID: radio.MakeLinkID(xa.ID, xb.ID), XA: xa, XB: xb,
		Lead: lead, Budget: budget, Class: class,
		DistM: g.dist, AtmosDB: atmos,
		B2G: xa.Node.Kind == platform.KindGround || xb.Node.Kind == platform.KindGround,
	}
	return rep, StageOK, ""
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Budget-memo key: power vectors match only when bit-identical.
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// freshGeom builds a single-pair geometry for a standalone staged
// evaluation.
func (e *Evaluator) freshGeom(xa, xb *platform.Transceiver, lead float64) pairGeom {
	a := siteAt(e.Predict(xa.Node, lead))
	b := siteAt(e.Predict(xb.Node, lead))
	return e.newPairGeom(&a, &b, nil, nil)
}

// EvaluatePair produces a report for one transceiver pair at a lead,
// or nil if the pair is geometrically infeasible or out of range.
func (e *Evaluator) EvaluatePair(xa, xb *platform.Transceiver, lead float64) *Report {
	if xa.Node == xb.Node {
		return nil
	}
	g := e.freshGeom(xa, xb, lead)
	rep, _, _ := e.evalStaged(xa, xb, lead, &g, 0, nil)
	return rep
}

// Reject explains why a pair is not a candidate (the §6 "why not"
// input): the failing stage's human-readable reason, or ok with the
// report. It runs the same staged pipeline as EvaluatePair exactly
// once (the accept path is not re-evaluated).
func (e *Evaluator) Reject(xa, xb *platform.Transceiver, lead float64) (reason string, rep *Report) {
	if xa.Node == xb.Node {
		return "same platform", nil
	}
	g := e.freshGeom(xa, xb, lead)
	rep, stage, detail := e.evalStaged(xa, xb, lead, &g, 0, nil)
	switch stage {
	case StageOK:
		return "", rep
	case StageRange:
		return "beyond maximum range", nil
	case StagePointA:
		return xa.ID + " cannot point: blocked by " + detail, nil
	case StagePointB:
		return xb.ID + " cannot point: blocked by " + detail, nil
	case StageLOS:
		return "no line of sight (Earth obstruction)", nil
	default: // StageBudget, StageMarginalDropped
		return "link budget does not close (insufficient margin)", nil
	}
}

// CandidateGraphDelta is CandidateGraph plus an empty placeholder.
//
// Deprecated: the edge delta lost its reader with the warm-start solver
// (DESIGN.md §7). Kept only because bench/e2e/trace.go calls it and
// bench/ is frozen; delete it together with that call.
func (e *Evaluator) CandidateGraphDelta(xcvrs []*platform.Transceiver, lead float64) ([]*Report, struct{}) {
	return e.CandidateGraph(xcvrs, lead), struct{}{}
}

// GraphDelta summarizes the difference between two candidate graphs
// (Fig. 4's hour-to-hour and minute-to-minute churn).
type GraphDelta struct {
	Added, Removed, Common int
}

// Changed reports whether anything differs.
func (d GraphDelta) Changed() bool { return d.Added+d.Removed > 0 }

// FracChanged is (added+removed) / union — the paper's per-hour delta
// percentage.
func (d GraphDelta) FracChanged() float64 {
	union := d.Added + d.Removed + d.Common
	if union == 0 {
		return 0
	}
	return float64(d.Added+d.Removed) / float64(union)
}

// AppendIDs appends the graph's link identities to dst, in the
// graph's (ID.A, ID.B) order: what a holder keeps of a graph it wants
// to Diff against a later one.
func AppendIDs(dst []radio.LinkID, g []*Report) []radio.LinkID {
	for _, r := range g {
		dst = append(dst, r.ID)
	}
	return dst
}

// Diff computes the delta from graph a to graph b by link identity,
// in one merge over the two ID lists; both must be in the (ID.A, ID.B)
// order graphs are emitted in.
func Diff(a, b []radio.LinkID) GraphDelta {
	var d GraphDelta
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j]); {
		case c == 0:
			d.Common++
			i++
			j++
		case c < 0:
			d.Removed++
			i++
		default:
			d.Added++
			j++
		}
	}
	d.Removed += len(a) - i
	d.Added += len(b) - j
	return d
}

// CountByType splits a graph into B2B and B2G candidate counts.
func CountByType(g []*Report) (b2b, b2g int) {
	for _, r := range g {
		if r.B2G {
			b2g++
		} else {
			b2b++
		}
	}
	return b2b, b2g
}
