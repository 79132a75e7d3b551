package radio

import (
	"math"
	"slices"

	"minkowski/internal/geo"
	"minkowski/internal/platform"
	"minkowski/internal/rf"
	"minkowski/internal/sim"
	"minkowski/internal/weather"
)

// Config tunes the link fabric.
type Config struct {
	// CheckInterval is how often installed links are re-evaluated
	// against the physical truth, seconds.
	CheckInterval float64
	// AcquireMinS/AcquireMaxS bound the beam-search time after
	// slewing ("this process could take dozens of seconds"; radio
	// boot-up plus search ran "up to 2m30s").
	AcquireMinS, AcquireMaxS float64
	// FlakeProb is the probability an attempt fails even when the
	// physics close: pointing-calibration offsets, radio reboots and
	// other hardware gremlins the paper blames for first-attempt
	// success rates of only 51% (B2G) / 40% (B2B).
	FlakeProb float64
	// RetryFlakeDecay multiplies FlakeProb on each retry of the same
	// pair (success "on retries diminished quickly" — a persistent
	// hardware problem stays broken).
	RetryFlakeDecay float64
	// PersistentFailProb is the chance a *pair* is cursed — some
	// un-modelled problem (stale obstruction, hardware fault) makes
	// every attempt fail. The paper: "in both cases 35% of links
	// never succeeded."
	PersistentFailProb float64
	// SideLobeProb is the chance an otherwise successful acquisition
	// locks the first side lobe instead of the main lobe.
	SideLobeProb float64
	// ReacquireProb is the chance a tracking glitch is recovered
	// locally via one-hop telemetry without the link dropping.
	ReacquireProb float64
	// B2G links draw a scintillation *regime* at establishment:
	// tropospheric turbulence and beam wander at low elevation make
	// some pointing geometries unstable — those links die within a
	// couple of minutes (the paper: B2G median lifetime 1m45s, 44.8%
	// under a minute) — while the rest hold for tens of minutes and
	// carry the mesh's ground attachment. B2GUnstableBase sets the
	// unstable probability at 5° elevation (scaled down at higher
	// angles); B2GUnstableHazard and B2GStableHazard are the
	// per-check drop probabilities of the two regimes.
	B2GUnstableBase   float64
	B2GUnstableHazard float64
	B2GStableHazard   float64
	// FadeHysteresis is how many consecutive below-margin checks drop
	// the link.
	FadeHysteresis int
	// TrackingNoiseDB is the 1-sigma random pointing loss observed in
	// measurements.
	TrackingNoiseDB float64
	// GlitchProbPerCheck is the chance per check of a transient
	// tracking glitch on a healthy link.
	GlitchProbPerCheck float64
}

// DefaultConfig returns fabric behaviour tuned to the paper's
// observed statistics.
func DefaultConfig() Config {
	return Config{
		CheckInterval:      10,
		AcquireMinS:        20,
		AcquireMaxS:        90,
		FlakeProb:          0.25,
		RetryFlakeDecay:    1.6,
		PersistentFailProb: 0.30,
		SideLobeProb:       0.04,
		ReacquireProb:      0.7,
		B2GUnstableBase:    0.55,
		B2GUnstableHazard:  0.08,
		B2GStableHazard:    0.003,
		FadeHysteresis:     2,
		TrackingNoiseDB:    1.0,
		GlitchProbPerCheck: 0.002,
	}
}

// Fabric simulates every radio link in the system against the
// physical truth: platform positions, antenna envelopes, and the true
// weather field.
type Fabric struct {
	cfg   Config
	eng   *sim.Engine
	wx    *weather.Field
	links map[LinkID]*Link
	// live holds the same links as the map, in LinkID order.
	live []*Link
	// adj indexes the links in StateUp by endpoint node (see nodeAdj);
	// upCount is how many there are. A link is in the index exactly
	// while its State is StateUp: finishAcquire and end update it
	// before OnUp/OnDown fire, so callbacks already see the new mesh.
	// The index is a slice keyed by the endpoints' Node.Index in ids.
	ids     *platform.IDs
	adj     []nodeAdj
	upCount int
	history []*Link // completed links, for telemetry
	// cursed marks transceiver pairs with persistent un-modelled
	// failures.
	cursed map[LinkID]bool
	tried  map[LinkID]bool

	// LinkChecks counts link measurements (acquisitions and periodic
	// checks); PathIntegrations counts the ones that had to integrate
	// the path because the world had moved since the link's last one.
	LinkChecks, PathIntegrations int

	// OnUp is called when a link reaches StateUp.
	OnUp func(*Link)
	// OnDown is called exactly once when a link reaches StateDown,
	// including failed acquisitions.
	OnDown func(*Link, Reason)
}

// NewFabric creates the link fabric on an engine and truth weather
// field. ids is the node-ID table its adjacency is keyed by — the
// fleet's, so that the MANET and in-band layers above share the
// indices.
func NewFabric(eng *sim.Engine, wx *weather.Field, ids *platform.IDs, cfg Config) *Fabric {
	f := &Fabric{
		cfg:    cfg,
		eng:    eng,
		wx:     wx,
		ids:    ids,
		links:  make(map[LinkID]*Link),
		cursed: make(map[LinkID]bool),
		tried:  make(map[LinkID]bool),
	}
	eng.Every(cfg.CheckInterval, func() bool {
		f.checkAll()
		return true
	})
	return f
}

// rng returns the fabric's random stream.
func (f *Fabric) rng() interface {
	Float64() float64
	NormFloat64() float64
} {
	return f.eng.RNG("radio")
}

// Establish begins a link attempt between two transceivers on the
// given channel. attempt is 1 for the first try of this pair in this
// intent. Returns the new Link, or nil if either transceiver is
// already tasked or the pair shares a platform.
func (f *Fabric) Establish(xa, xb *platform.Transceiver, ch rf.Channel, attempt int) *Link {
	if xa.Node == xb.Node || xa.Busy || xb.Busy {
		return nil
	}
	id := MakeLinkID(xa.ID, xb.ID)
	if _, exists := f.links[id]; exists {
		return nil
	}
	// The first attempt of an establishment campaign decides whether
	// the campaign is cursed: an un-modelled problem (pointing
	// calibration, stale obstruction data, transient hardware fault)
	// that defeats every retry of *this* intent. A later campaign for
	// the same pair re-rolls — conditions change. This reproduces the
	// paper's "in both cases 35% of links never succeeded" at the
	// link-intent level while letting pairs recover across solve
	// cycles.
	if attempt <= 1 {
		f.cursed[id] = f.rng().Float64() < f.cfg.PersistentFailProb
	}
	f.tried[id] = true
	// A fleet's nodes are registered already; this covers hand-built ones.
	f.ids.Register(xa.Node)
	f.ids.Register(xb.Node)
	xa.Busy, xb.Busy = true, true
	l := &Link{
		ID: id, XA: xa, XB: xb, Channel: ch,
		State: StateSlewing, CommandedAt: f.eng.Now(), Attempt: attempt,
	}
	f.links[id] = l
	at, _ := slices.BinarySearchFunc(f.live, id, compareLinkToID)
	f.live = slices.Insert(f.live, at, l)
	// Slew both gimbals concurrently; acquisition begins when the
	// slower finishes.
	pa := geo.PointingTo(xa.Node.Position(), xb.Node.Position())
	pb := geo.PointingTo(xb.Node.Position(), xa.Node.Position())
	slew := math.Max(xa.Mount.Gimbal.SlewTime(pa), xb.Mount.Gimbal.SlewTime(pb))
	f.eng.After(slew, func() {
		if l.State != StateSlewing {
			return
		}
		xa.Mount.Gimbal.PointAt(pa)
		xb.Mount.Gimbal.PointAt(pb)
		l.State = StateAcquiring
		search := f.cfg.AcquireMinS + f.rng().Float64()*(f.cfg.AcquireMaxS-f.cfg.AcquireMinS)
		f.eng.After(search, func() { f.finishAcquire(l) })
	})
	return l
}

// finishAcquire resolves an acquisition attempt against the truth.
func (f *Fabric) finishAcquire(l *Link) {
	if l.State != StateAcquiring {
		return
	}
	if reason, ok := f.feasible(l); !ok {
		f.end(l, reason)
		return
	}
	if f.cursed[l.ID] {
		f.end(l, ReasonAcquireFailed)
		return
	}
	// Hardware flakiness, decaying odds on retries.
	flake := f.cfg.FlakeProb * math.Pow(f.cfg.RetryFlakeDecay, float64(l.Attempt-1))
	if flake > 0.95 {
		flake = 0.95
	}
	if f.rng().Float64() < flake {
		f.end(l, ReasonAcquireFailed)
		return
	}
	l.SideLobe = f.rng().Float64() < f.cfg.SideLobeProb
	// Ground-terminated links draw their scintillation regime now:
	// lower elevation angles are more likely to land in the unstable
	// regime.
	if l.IsB2G() && f.cfg.B2GUnstableBase > 0 {
		gnd, bln := l.XA, l.XB
		if gnd.Node.Kind != platform.KindGround {
			gnd, bln = bln, gnd
		}
		elDeg := geo.ToDeg(geo.PointingTo(gnd.Node.Position(), bln.Node.Position()).Elevation)
		if elDeg < 1 {
			elDeg = 1
		}
		p := f.cfg.B2GUnstableBase * math.Sqrt(5/elDeg)
		if p > 0.9 {
			p = 0.9
		}
		l.Unstable = f.rng().Float64() < p
	}
	b := f.measure(l)
	if !b.Closes() {
		f.end(l, ReasonAcquireFailed)
		return
	}
	l.Measured = b
	l.State = StateUp
	l.EstablishedAt = f.eng.Now()
	f.indexUp(l)
	if f.OnUp != nil {
		f.OnUp(l)
	}
}

// feasible checks the geometric and power preconditions of a link.
func (f *Fabric) feasible(l *Link) (Reason, bool) {
	if !l.XA.Node.Operational() || !l.XB.Node.Operational() {
		return ReasonPowerLoss, false
	}
	posA, posB := l.XA.Node.Position(), l.XB.Node.Position()
	pa := geo.PointingTo(posA, posB)
	pb := geo.PointingTo(posB, posA)
	if ok, _ := l.XA.Mount.CanPoint(pa); !ok {
		return ReasonGeometry, false
	}
	if ok, _ := l.XB.Mount.CanPoint(pb); !ok {
		return ReasonGeometry, false
	}
	if !geo.LineOfSight(posA, posB, 0) {
		return ReasonGeometry, false
	}
	return ReasonNone, true
}

// measure computes the true link budget as the radios would measure
// it right now: true weather, boresight gains (or a side-lobe on one
// end), plus tracking noise. The world moves less often than links are
// checked, so range and attenuation are integrated once per distinct
// (positions, weather) and every check in between reuses the bits.
func (f *Fabric) measure(l *Link) rf.Budget {
	f.LinkChecks++
	posA, posB := l.XA.Node.Position(), l.XB.Node.Position()
	m := l.path
	//minkowski:floateq-ok memo key: the memo serves only bit-identical endpoint positions
	if m == nil || m.posA != posA || m.posB != posB || m.wxVersion != f.wx.Version() {
		f.PathIntegrations++
		m = &pathMemo{
			posA: posA, posB: posB, wxVersion: f.wx.Version(),
			dist:  geo.SlantRange(posA, posB),
			atmos: f.wx.PathAttenuation(l.Channel.CenterGHz, posA, posB),
		}
		l.path = m
	}
	gainA := l.XA.Mount.Pattern.PeakDBi
	gainB := l.XB.Mount.Pattern.PeakDBi
	if l.SideLobe {
		gainB += l.XB.Mount.Pattern.FirstSideLobeDB
	}
	noise := math.Abs(f.rng().NormFloat64()) * f.cfg.TrackingNoiseDB
	return rf.BestBudget(l.XA.Radio, l.Channel, gainA, gainB, m.dist, m.atmos, 0.5+noise)
}

// Withdraw gracefully tears down a link (or cancels an in-flight
// attempt). It is the controller-initiated, *planned* termination.
func (f *Fabric) Withdraw(id LinkID) bool {
	l, ok := f.links[id]
	if !ok {
		return false
	}
	f.end(l, ReasonWithdrawn)
	return true
}

// end retires a link, frees its transceivers, and fires callbacks.
func (f *Fabric) end(l *Link, r Reason) {
	if l.State == StateDown {
		return
	}
	if l.State == StateUp {
		f.indexDown(l)
	}
	l.State = StateDown
	l.EndReason = r
	l.EndedAt = f.eng.Now()
	l.path = nil // history keeps ended links; it need not keep their memo
	l.XA.Busy, l.XB.Busy = false, false
	delete(f.links, l.ID)
	at, _ := slices.BinarySearchFunc(f.live, l.ID, compareLinkToID)
	f.live = slices.Delete(f.live, at, at+1)
	f.history = append(f.history, l)
	if f.OnDown != nil {
		f.OnDown(l, r)
	}
}

// checkAll re-evaluates every installed link against the truth, in
// LinkID order. It walks a snapshot: a check can end a link, and the
// OnDown callback may establish another.
func (f *Fabric) checkAll() {
	for _, l := range f.Links() {
		if l.State == StateUp {
			f.checkLink(l)
		}
	}
}

// checkLink applies geometry, power, fade, and glitch processes to one
// installed link.
func (f *Fabric) checkLink(l *Link) {
	if reason, ok := f.feasible(l); !ok {
		f.end(l, reason)
		return
	}
	b := f.measure(l)
	l.Measured = b
	if !b.Closes() {
		l.belowMarginChecks++
		if l.belowMarginChecks >= f.cfg.FadeHysteresis {
			f.end(l, ReasonRFFade)
		}
		return
	}
	l.belowMarginChecks = 0
	// Low-elevation scintillation on ground-terminated links, by the
	// regime drawn at establishment.
	if l.IsB2G() {
		hazard := f.cfg.B2GStableHazard
		if l.Unstable {
			hazard = f.cfg.B2GUnstableHazard
		}
		if hazard > 0 && f.rng().Float64() < hazard {
			f.end(l, ReasonRFFade)
			return
		}
	}
	// Transient tracking glitch: one-hop telemetry usually recovers
	// it locally (fast reacquisition); otherwise the link drops.
	if f.rng().Float64() < f.cfg.GlitchProbPerCheck {
		if f.rng().Float64() > f.cfg.ReacquireProb {
			f.end(l, ReasonRFFade)
		}
	}
}

// FailNode terminates every live link touching a node with the given
// reason (used when a vehicle leaves the fleet: the platform is
// simply gone).
func (f *Fabric) FailNode(node string, r Reason) {
	for _, l := range f.Links() {
		a, b := l.Nodes()
		if a == node || b == node {
			f.end(l, r)
		}
	}
}

// Get returns the live link with the given ID.
func (f *Fabric) Get(id LinkID) (*Link, bool) {
	l, ok := f.links[id]
	return l, ok
}

// Links returns all live links (any state except down), sorted by ID.
// The slice is the caller's own.
func (f *Fabric) Links() []*Link { return slices.Clone(f.live) }

// UpLinks returns only the links in StateUp, sorted by ID.
func (f *Fabric) UpLinks() []*Link {
	if f.upCount == 0 {
		return nil
	}
	out := make([]*Link, 0, f.upCount)
	for _, l := range f.live {
		if l.Up() {
			out = append(out, l)
		}
	}
	return out
}

// History returns all completed links in completion order.
func (f *Fabric) History() []*Link { return f.history }

// PropagationDelay returns the one-way propagation delay over a link
// in seconds (speed of light over the slant range).
func PropagationDelay(l *Link) float64 {
	const c = 299792458.0
	return geo.SlantRange(l.XA.Node.Position(), l.XB.Node.Position()) / c
}

// Transmit models sending size bytes over an installed link, invoking
// done(true) after propagation + serialization delay, or done(false)
// immediately if the link is not up. Jitter of ±20% models queueing.
func (f *Fabric) Transmit(l *Link, size int, done func(bool)) {
	if l == nil || !l.Up() {
		if done != nil {
			f.eng.After(0, func() { done(false) })
		}
		return
	}
	ser := float64(size*8) / l.Measured.BitrateBps
	delay := PropagationDelay(l) + ser
	delay *= 0.9 + 0.2*f.rng().Float64()
	// Tiny floor models switching/processing latency.
	delay += 0.002
	f.eng.After(delay, func() {
		if done != nil {
			done(l.Up())
		}
	})
}
