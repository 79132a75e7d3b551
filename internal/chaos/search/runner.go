package search

import (
	"fmt"
	"sort"
	"strings"

	"minkowski/internal/chaos"
	"minkowski/internal/core"
	"minkowski/internal/geo"
	"minkowski/internal/manet"
	"minkowski/internal/obs"
	"minkowski/internal/platform"
)

// Options tune one script execution.
type Options struct {
	// PreFix runs on core.NewPreFix (symmetric in-band model, telemetry
	// guard and epoch fencing off) — the configuration the chaos search
	// originally found its violations under. Repro tests use it to
	// prove a committed reproducer still reproduces.
	PreFix bool
	// CheckDeterminism runs the script twice and compares telemetry
	// digests (doubles the cost; the search enables it, shrinking of
	// non-determinism violations keeps it, other shrinking drops it).
	CheckDeterminism bool
}

const (
	// recoveryBoundS is the time after a controller restart within
	// which the solve loop must demonstrably resume: reconciliation is
	// immediate, the next solve cycle is at most one 60 s interval
	// away, the rest is slack.
	recoveryBoundS = 150.0
	// positionBoundM is the maximum believed-vs-truth position error
	// for an operational balloon: a quarantined node's frozen fix
	// drifts at most MaxSpeed × window, the byzantine spoof is 250 km.
	positionBoundM = 200e3
	// ghostGraceS is how long a node may look in-band (fresh
	// heartbeats) with no real up-path before it counts as a ghost:
	// heartbeat timeout + probe cadence + mesh convergence.
	ghostGraceS = 30.0
	// promotionBoundS is the time after the leadership lease can first
	// lapse within which a standby must have promoted and resumed
	// solving. The probe's deadline is fault start + lease TTL (30 s)
	// + one leaseCheckS (5 s) for the standby to see the lapse and
	// take over + this bound; reconciliation is immediate and the
	// promoted replica's next solve is at most one 60 s solve interval
	// away, which leaves 30 s of slack. A solve takes zero
	// sim-seconds, so the bound does not depend on how the solver
	// starts.
	promotionBoundS = 90.0
)

// Result is one script execution's verdict.
type Result struct {
	Script     Script      `json:"script"`
	Violations []Violation `json:"violations,omitempty"`
	// Margins is the continuous distance-to-violation per invariant:
	// 1 means comfortable, 0 means on the boundary, ≤ -1 means violated
	// (violations are clamped below every near-miss). Invariants with
	// nothing to measure in this run (no crash to recover from, no sync
	// command accepted) are omitted.
	Margins map[string]float64 `json:"margins,omitempty"`
	// Digest is the run's telemetry digest (determinism evidence).
	Digest uint64 `json:"digest"`
	// Counters snapshotted at end of run.
	DuplicateEstablishes int `json:"duplicateEstablishes"`
	LateSyncEnactments   int `json:"lateSyncEnactments"`
	Crashes              int `json:"crashes"`
	GuardRejected        int `json:"guardRejected"`
	// Replication counters.
	Promotions           int `json:"promotions,omitempty"`
	Standdowns           int `json:"standdowns,omitempty"`
	StaleEpochRejections int `json:"staleEpochRejections,omitempty"`
	StaleEpochAccepts    int `json:"staleEpochAccepts,omitempty"`
	// Flight is the flight recorder's black box, captured at the
	// moment the first invariant violation was recorded (the last
	// FlightWindowS sim-seconds of spans, events, and metrics on the
	// acting replica). Nil on clean runs.
	Flight *obs.FlightDump `json:"flight,omitempty"`
	// Obs is the end-of-run metrics snapshot, attached only to
	// violating runs. Violated-invariant margins appear in it as
	// chaos.margin.<invariant> gauges.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// Violated reports whether the named invariant was breached.
func (r Result) Violated(name string) bool {
	for _, v := range r.Violations {
		if v.Invariant == name {
			return true
		}
	}
	return false
}

// config maps a script + options onto a controller scenario. The
// sizing matches internal/experiments' scale mapping; the cadence
// knobs match the fast chaos-test profile so trials stay cheap.
func config(s Script) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.FleetSize = s.FleetSize()
	cfg.SolveIntervalS = 60
	cfg.AgentConnCheckS = 5
	cfg.DisablePower = true
	// Every trial runs the replicated control plane so the failover
	// and partition fault kinds have something to bite on. Replication
	// is inert without controller faults (the lease renews forever and
	// the epoch stays 1), so pre-existing repros are unaffected.
	cfg.ReplicationEnabled = true
	// Sample data-plane delivery once a solve interval so the delivery
	// invariant (and its margin) has evidence to judge. The probe is
	// read-only; runs without it are byte-identical to the pre-probe
	// profile only in configs that leave DeliveryProbeS at 0.
	cfg.DeliveryProbeS = 60
	return cfg
}

// Run executes a script and checks the invariant suite over its
// trace. With CheckDeterminism it runs the script twice and also
// checks digest equality.
func Run(s Script, opts Options) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	res, err := runOnce(s, opts)
	if err != nil {
		return Result{}, err
	}
	if opts.CheckDeterminism {
		again, err := runOnce(s, opts)
		if err != nil {
			return Result{}, err
		}
		if again.Digest != res.Digest {
			res.Violations = append(res.Violations, Violation{
				Invariant: InvDeterminism,
				At:        s.Hours * 3600,
				Detail: fmt.Sprintf("telemetry digest diverged across identical runs: %x vs %x",
					res.Digest, again.Digest),
			})
			res.Margins[InvDeterminism] = -1
		} else {
			// Determinism is binary — there is no near-miss to measure —
			// but a checked, passing run still records full margin so
			// the margin map covers the invariant.
			res.Margins[InvDeterminism] = 1
		}
	}
	return res, nil
}

// crashWindow is a controller-crash fault's [start, restart] span.
type crashWindow struct{ start, end float64 }

// runOnce builds a fresh world, injects the script, runs it with the
// invariant probes installed, and evaluates the end-of-run checks.
func runOnce(s Script, opts Options) (Result, error) {
	scn, err := s.Scenario()
	if err != nil {
		return Result{}, err
	}
	build := core.New
	if opts.PreFix {
		build = core.NewPreFix
	}
	c := build(config(s))
	if _, err := c.InstallChaos(scn); err != nil {
		return Result{}, err
	}

	var violations []Violation
	var flight *obs.FlightDump
	record := func(inv, detail string) {
		if flight == nil {
			// Black box: grab the recorder ring at the FIRST violation,
			// while the window still covers the moments leading up to it.
			flight = c.ObsFlightDump()
		}
		violations = append(violations, Violation{
			Invariant: inv, At: c.Eng.Now(), Detail: detail,
		})
	}
	// Margins: continuous distance-to-violation per invariant.
	// noteMargin keeps the minimum (worst) observation; after the run,
	// violated invariants are clamped to ≤ -1 so every violation orders
	// strictly below every near-miss.
	margins := map[string]float64{}
	noteMargin := func(inv string, m float64) {
		if cur, ok := margins[inv]; !ok || m < cur {
			margins[inv] = m
		}
	}

	// --- bounded-recovery probes (per controller-crash fault) -------
	// Controller-affecting fault windows of every kind collide with
	// each other's recovery/promotion observations, so both probe
	// families skip any window whose observation span overlaps another
	// controller window.
	var ctlWindows []crashWindow
	var crashes, failovers []int // indices into ctlWindows
	for _, f := range scn.Faults {
		if f.Duration <= 0 {
			continue
		}
		w := crashWindow{f.At, f.At + f.Duration}
		switch f.Kind {
		case chaos.ControllerCrash:
			crashes = append(crashes, len(ctlWindows))
			ctlWindows = append(ctlWindows, w)
		case chaos.ControllerFailover, chaos.ControllerPartition:
			failovers = append(failovers, len(ctlWindows))
			ctlWindows = append(ctlWindows, w)
		case chaos.LeaseFlap:
			// A flapping lease cell blocks standby acquisition, so
			// recovery/promotion observations overlapping the flap must
			// be suppressed — but the flap itself gets neither probe
			// family (leadership lapsing under a dead cell write path
			// is the expected outcome, not a bounded-takeover promise).
			ctlWindows = append(ctlWindows, w)
		}
	}
	horizon := s.Hours * 3600
	overlapsOther := func(self int, from, to float64) bool {
		for i, other := range ctlWindows {
			if i == self {
				continue
			}
			if other.start < to && other.end > from {
				return true
			}
		}
		return false
	}
	for _, ci := range crashes {
		cw := ctlWindows[ci]
		// Skip windows whose recovery span collides with another
		// controller fault: "recovered" is unobservable while a second
		// fault holds the controller down.
		restart, deadline := cw.end, cw.end+recoveryBoundS
		if deadline >= horizon || overlapsOther(ci, restart, deadline) {
			continue
		}
		var solvesAtRestart int
		capturedAt := restart + 1
		c.Eng.At(capturedAt, func() { solvesAtRestart = c.SolveRuns })
		// Poll between restart and deadline so the margin measures how
		// much of the bound was LEFT when the solve loop resumed, not
		// just whether the deadline was met.
		var resumedAt float64
		resumed := false
		observe := func() {
			if !resumed && !c.Down() && c.SolveRuns > solvesAtRestart {
				resumed = true
				resumedAt = c.Eng.Now()
			}
		}
		for t := capturedAt + 5; t < deadline; t += 5 {
			c.Eng.At(t, observe)
		}
		c.Eng.At(deadline, func() {
			observe()
			if c.Down() {
				record(InvBoundedRecovery,
					fmt.Sprintf("controller still down %.0fs after restart at t=%.0fs", recoveryBoundS, restart))
				return
			}
			if c.SolveRuns <= solvesAtRestart {
				record(InvBoundedRecovery,
					fmt.Sprintf("no solve cycle completed within %.0fs of restart at t=%.0fs", recoveryBoundS, restart))
				return
			}
			noteMargin(InvBoundedRecovery, (deadline-resumedAt)/recoveryBoundS)
		})
	}

	// --- bounded-promotion probes (failover / partition faults) -----
	// The lease (30 s TTL, 5 s checks in the search profile) can first
	// lapse TTL after the fault starts; the standby must have promoted
	// and demonstrably resumed solving within the promotion bound
	// after that. Windows too short for the lease to lapse are skipped
	// (healing before deposition is legitimate), as are windows whose
	// observation span collides with another controller fault.
	const leaseLapseS = 35 // search-profile TTL + one check cadence
	for _, fi := range failovers {
		fw := ctlWindows[fi]
		deadline := fw.start + leaseLapseS + promotionBoundS
		if fw.end-fw.start <= leaseLapseS {
			continue
		}
		if deadline >= horizon || overlapsOther(fi, fw.start, deadline) {
			continue
		}
		var promosBefore, solvesBefore int
		c.Eng.At(fw.start+1, func() {
			promosBefore = c.Promotions
			solvesBefore = c.SolveRuns
		})
		var resumedAt float64
		resumed := false
		observe := func() {
			if !resumed && c.Promotions > promosBefore && !c.Down() && c.SolveRuns > solvesBefore {
				resumed = true
				resumedAt = c.Eng.Now()
			}
		}
		for t := fw.start + 6; t < deadline; t += 5 {
			c.Eng.At(t, observe)
		}
		c.Eng.At(deadline, func() {
			observe()
			if c.Promotions <= promosBefore {
				record(InvBoundedPromotion,
					fmt.Sprintf("no standby promotion within %.0fs of the fault at t=%.0fs (lease lapse + bound)",
						leaseLapseS+promotionBoundS, fw.start))
				return
			}
			if c.Down() {
				record(InvBoundedPromotion,
					fmt.Sprintf("promoted controller still down %.0fs after the fault at t=%.0fs", leaseLapseS+promotionBoundS, fw.start))
				return
			}
			if c.SolveRuns <= solvesBefore {
				record(InvBoundedPromotion,
					fmt.Sprintf("no solve cycle completed within %.0fs of the fault at t=%.0fs", leaseLapseS+promotionBoundS, fw.start))
				return
			}
			noteMargin(InvBoundedPromotion, (deadline-resumedAt)/(leaseLapseS+promotionBoundS))
		})
	}

	// --- control-consistency probe (ghost heartbeats) ---------------
	const ghostProbeS = 5
	var nodes []int32
	var ghostFor []float64 // by node index
	var ghosted []bool     // one violation per node per episode
	maxGhost := 0.0        // worst sustained ghost episode (margin evidence)
	c.Eng.Every(ghostProbeS, func() bool {
		nodes = c.Net.AppendNodes(nodes[:0])
		for len(ghostFor) < c.Fleet.IDs.Len() {
			ghostFor, ghosted = append(ghostFor, 0), append(ghosted, false)
		}
		for _, i := range nodes {
			id := c.Fleet.IDs.Name(i)
			if c.Frontend.InBandUp(id) && !c.InBand.RoutedUp(id) {
				ghostFor[i] += ghostProbeS
				if ghostFor[i] > maxGhost {
					maxGhost = ghostFor[i]
				}
				if ghostFor[i] > ghostGraceS && !ghosted[i] {
					ghosted[i] = true
					record(InvControlConsistency,
						fmt.Sprintf("%s looks in-band (fresh heartbeats) but has had no real up-path for %.0fs",
							id, ghostFor[i]))
				}
			} else {
				ghostFor[i] = 0
				ghosted[i] = false
			}
		}
		return true
	})

	// --- position-sanity probe --------------------------------------
	// Balloons in Nodes order, so breaches in one tick record in a
	// run-independent order.
	var posViolated []bool // by node index
	maxPosFrac := 0.0      // worst error as a fraction of the bound (margin evidence)
	c.Eng.Every(60, func() bool {
		for _, n := range c.Fleet.Balloons() {
			posViolated = platform.Fit(posViolated, n.Index)
			if !n.Operational() || posViolated[n.Index] {
				continue
			}
			d := geo.SlantRange(c.EstimatedPosition(n), n.Position())
			if frac := d / positionBoundM; frac > maxPosFrac {
				maxPosFrac = frac
			}
			if d > positionBoundM {
				posViolated[n.Index] = true
				record(InvPositionSanity,
					fmt.Sprintf("controller believes %s is %.0f km from its true position (bound %.0f km)",
						n.ID, d/1e3, positionBoundM/1e3))
			}
		}
		return true
	})

	// --- intent-journal consistency probe ---------------------------
	// Sampled once a solve interval. Transient divergence while
	// commands are in flight is normal, so the signal is the longest
	// mismatch STREAK: the margin measures it against a tolerance, and
	// only divergence that has persisted a full streak bound into a
	// clean (controller-up) end of run is a violation.
	const journalProbeS = 60
	const journalStreakBoundS = 600
	journalStreak, maxJournalStreak := 0.0, 0.0
	c.Eng.Every(journalProbeS, func() bool {
		if c.Down() {
			return true // the acting journal is unreadable mid-crash
		}
		if len(c.JournalIntentMismatches()) > 0 {
			journalStreak += journalProbeS
			if journalStreak > maxJournalStreak {
				maxJournalStreak = journalStreak
			}
		} else {
			journalStreak = 0
		}
		return true
	})

	c.RunHours(s.Hours)

	// --- end-of-run checks ------------------------------------------
	if c.DuplicateEstablishes > 0 {
		record(InvNoDuplicateEnactment,
			fmt.Sprintf("%d duplicate establish commands for journaled up links", c.DuplicateEstablishes))
	}
	// Every journal re-adoption exercised the restart path where a
	// duplicate establish could have been issued: the margin shrinks
	// with each near-miss even while the counter stays zero.
	noteMargin(InvNoDuplicateEnactment, 1/(1+float64(c.Readopted)))
	if late := c.Frontend.LateSyncEnactments(); late > 0 {
		record(InvNoLateSyncEnactment,
			fmt.Sprintf("%d sync-required commands enacted after their TTE", late))
	}
	// Margin: the tightest arrival headroom any accepted sync command
	// had before its TTE, in units of a comfortable minute.
	if slack, ok := c.Frontend.MinSyncSlack(); ok {
		m := slack / 60
		if m > 1 {
			m = 1
		}
		noteMargin(InvNoLateSyncEnactment, m)
	}
	if loop, found := manet.FindLoop(c.Router, c.Net.AppendNodes(nil)); found {
		record(InvNoRoutingLoop,
			fmt.Sprintf("router snapshot loops %v forwarding %s→%s", loop.Cycle, loop.Src, loop.Dst))
	}
	deadEnds := 0
	for _, r := range c.Data.Routes() {
		if len(r.Path) < 2 {
			continue
		}
		cycle, deadEnd, looped := dataplaneLoop(c, r.ID, r.Path[0], r.Path[len(r.Path)-1])
		if looped {
			record(InvNoRoutingLoop,
				fmt.Sprintf("data-plane entries for %s loop %v", r.ID, cycle))
		}
		if deadEnd {
			deadEnds++
		}
	}
	// Dead-end walks are legal partial programming, but each one is a
	// route whose entries were mid-rewrite — the raw material loops are
	// made of.
	noteMargin(InvNoRoutingLoop, 1/(1+float64(deadEnds)))
	noteMargin(InvControlConsistency, (ghostGraceS-maxGhost)/ghostGraceS)
	noteMargin(InvPositionSanity, 1-maxPosFrac)
	noteMargin(InvIntentJournalConsistency, 1-maxJournalStreak/journalStreakBoundS)
	if !c.Down() && journalStreak >= journalStreakBoundS {
		if mm := c.JournalIntentMismatches(); len(mm) > 0 {
			record(InvIntentJournalConsistency,
				fmt.Sprintf("journal/intent divergence persisted %.0fs into a clean end of run (%d mismatches): %s",
					journalStreak, len(mm), strings.Join(mm, "; ")))
		}
	}
	if m := c.Delivery; m != nil && m.Injected > 0 {
		noteMargin(InvDataplaneDelivery, 1-m.MaxOutageS/m.GraceS)
		if m.LostBeyondGrace > 0 {
			record(InvDataplaneDelivery,
				fmt.Sprintf("%d delivery probes lost beyond the %.0fs grace (max outage %.0fs) with endpoints mutually reachable and the control plane able to repair",
					m.LostBeyondGrace, m.GraceS, m.MaxOutageS))
		}
	}
	if c.Lease != nil {
		for _, v := range c.Lease.Audit() {
			record(InvSingleLeader, v)
		}
		// Margin: the tightest gap between consecutive different-holder
		// tenures, in lease-TTL units (an overlap is the violation the
		// audit reports).
		handoffMargin := 1.0
		for i := 1; i < len(c.Lease.Grants); i++ {
			prev, cur := c.Lease.Grants[i-1], c.Lease.Grants[i]
			if cur.Holder == prev.Holder {
				continue
			}
			gap := (cur.At - prev.Until) / c.Lease.TTLS
			if gap > 1 {
				gap = 1
			}
			if gap < handoffMargin {
				handoffMargin = gap
			}
		}
		noteMargin(InvSingleLeader, handoffMargin)
		if n := c.Frontend.EpochRegressions(); n > 0 {
			record(InvEpochMonotonic,
				fmt.Sprintf("%d enactments regressed below an already-enacted fencing epoch", n))
		}
		if n := c.Frontend.StaleEpochAccepts(); n > 0 {
			record(InvNoStaleEpochAccept,
				fmt.Sprintf("%d commands enacted despite carrying a stale fencing epoch (split-brain double-enactment)", n))
		}
		// Every stale-epoch rejection is the fence actually bouncing a
		// deposed primary's command — the near-miss both epoch
		// invariants exist to bound.
		rej := float64(c.Frontend.StaleEpochRejections())
		noteMargin(InvEpochMonotonic, 1/(1+rej))
		noteMargin(InvNoStaleEpochAccept, 1/(1+rej))
		// Journal convergence is only decidable when the stream is
		// attached and idle: a run ending mid-partition or mid-flight
		// legitimately leaves the standby behind.
		if !c.Down() && c.Repl.Connected() && c.Repl.InFlight() == 0 {
			// Each disconnected-drop is replication traffic the standby
			// missed and had to win back through reconciliation.
			noteMargin(InvJournalConvergence, 1/(1+float64(c.Repl.DroppedDisconnected)))
			if a, b := c.Journal.Digest(), c.Repl.StandbyJournal().Digest(); a != b {
				record(InvJournalConvergence,
					fmt.Sprintf("standby journal digest %x != acting journal digest %x with the stream attached and idle", b, a))
			}
		}
	}

	// Clamp: a violated invariant's margin sorts below every near-miss,
	// whatever its probes measured.
	for _, v := range violations {
		if cur, ok := margins[v.Invariant]; !ok || cur > -1 {
			margins[v.Invariant] = -1
		}
	}

	// Violating runs ship an obs snapshot with the final margins
	// mirrored as gauges (sorted registration order keeps the snapshot
	// deterministic; the snapshot itself re-sorts by name anyway).
	var snap *obs.Snapshot
	if len(violations) > 0 {
		invs := make([]string, 0, len(margins))
		for inv := range margins {
			invs = append(invs, inv)
		}
		sort.Strings(invs)
		for _, inv := range invs {
			c.Obs.Reg.Gauge("chaos.margin." + inv).Set(margins[inv])
		}
		sn := c.ObsSnapshot()
		snap = &sn
	}

	return Result{
		Script:               s,
		Violations:           violations,
		Margins:              margins,
		Digest:               c.TelemetryDigest(),
		DuplicateEstablishes: c.DuplicateEstablishes,
		LateSyncEnactments:   c.Frontend.LateSyncEnactments(),
		Crashes:              c.Crashes,
		GuardRejected:        c.PosGuard.Rejected,
		Promotions:           c.Promotions,
		Standdowns:           c.Standdowns,
		StaleEpochRejections: c.Frontend.StaleEpochRejections(),
		StaleEpochAccepts:    c.Frontend.StaleEpochAccepts(),
		Flight:               flight,
		Obs:                  snap,
	}, nil
}

// dataplaneLoop walks a route's installed forwarding entries
// (whatever their generations) from src toward dst, reporting a cycle
// if the walk revisits a node. Dead ends are fine — partial
// programming is a fact of life — but they are reported separately as
// margin evidence: a persistent cycle means packets orbit, and cycles
// are assembled from exactly such half-programmed states.
func dataplaneLoop(c *core.Controller, routeID, src, dst string) (cycle []string, deadEnd, looped bool) {
	seen := map[string]bool{src: true}
	walk := []string{src}
	cur := src
	for i := 0; i < 4096; i++ {
		nh, _, ok := c.Data.NextHopFor(cur, routeID)
		if !ok {
			return nil, true, false
		}
		if nh == dst {
			return nil, false, false
		}
		walk = append(walk, nh)
		if seen[nh] {
			return walk, false, true
		}
		seen[nh] = true
		cur = nh
	}
	return walk, false, true
}
