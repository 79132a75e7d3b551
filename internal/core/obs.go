package core

import (
	"strconv"

	"minkowski/internal/cdpi"
	"minkowski/internal/obs"
)

// obsMetrics holds the controller's interned registry handles so every
// hot-path record is a direct array op — no name lookups after New.
// The registry is always live (these counters are the authoritative
// storage behind CmdDeafDrops); Cfg.ObsEnabled gates only the tracer
// and the flight recorder.
type obsMetrics struct {
	cmdDeafDrops  obs.Counter
	dispatches    obs.Counter
	solveHolds    obs.Counter
	enactOK       obs.Counter
	enactFailed   obs.Counter
	enactInferred obs.Counter
	enactLatency  obs.Histogram
}

// newObs builds the controller's observability bundle from the sim
// clock and interns the hot-path handles.
func newObs(cfg Config, now func() float64) (*obs.Obs, obsMetrics) {
	o := obs.New(obs.Config{Enabled: cfg.ObsEnabled}, now)
	m := obsMetrics{
		cmdDeafDrops:  o.Reg.Counter("cdpi.cmd_deaf_drops"),
		dispatches:    o.Reg.Counter("cdpi.dispatches"),
		solveHolds:    o.Reg.Counter("solve.holds"),
		enactOK:       o.Reg.Counter("enact.ok"),
		enactFailed:   o.Reg.Counter("enact.failed"),
		enactInferred: o.Reg.Counter("enact.inferred"),
		// Bounds are inclusive upper edges in sim-seconds; the last
		// bucket overflows. Sized around the TTE (satcom p95 is 186 s).
		enactLatency: o.Reg.Histogram("enact.latency_s", []float64{1, 5, 15, 60, 180, 600}),
	}
	return o, m
}

// installObs registers the snapshot-time gauge mirrors: counters whose
// authoritative storage lives in other subsystems (cdpi per-agent
// sums, the lease cell, satcom queues, the journal audit) surface in
// the snapshot without adding a single hot-path instruction. Runs
// after New has wired every subsystem; the closures run on the sim
// loop at Snapshot time and are deterministic.
func (c *Controller) installObs() {
	reg := c.Obs.Reg
	reg.GaugeFunc("solve.runs", func() float64 { return float64(c.SolveRuns) })
	reg.GaugeFunc("restart.crashes", func() float64 { return float64(c.Crashes) })
	reg.GaugeFunc("restart.readopted", func() float64 { return float64(c.Readopted) })
	reg.GaugeFunc("restart.expired", func() float64 { return float64(c.ExpiredOnRestart) })
	reg.GaugeFunc("restart.duplicate_establishes", func() float64 { return float64(c.DuplicateEstablishes) })
	reg.GaugeFunc("journal.intent_mismatches", func() float64 { return float64(len(c.JournalIntentMismatches())) })
	reg.GaugeFunc("cdpi.stale_epoch_rejections", func() float64 { return float64(c.Frontend.StaleEpochRejections()) })
	reg.GaugeFunc("cdpi.stale_epoch_accepts", func() float64 { return float64(c.Frontend.StaleEpochAccepts()) })
	reg.GaugeFunc("cdpi.epoch_regressions", func() float64 { return float64(c.Frontend.EpochRegressions()) })
	reg.GaugeFunc("cdpi.late_sync_enactments", func() float64 { return float64(c.Frontend.LateSyncEnactments()) })
	reg.GaugeFunc("satcom.sent", func() float64 { return float64(c.Sat.Sent) })
	reg.GaugeFunc("satcom.delivered", func() float64 { return float64(c.Sat.Delivered) })
	reg.GaugeFunc("satcom.dropped", func() float64 { return float64(c.Sat.Dropped) })
	reg.GaugeFunc("satcom.requeued", func() float64 { return float64(c.Sat.Requeued) })
	reg.GaugeFunc("fabric.link_checks", func() float64 { return float64(c.Fabric.LinkChecks) })
	reg.GaugeFunc("fabric.path_integrations", func() float64 { return float64(c.Fabric.PathIntegrations) })
	reg.GaugeFunc("eval.pairs_enumerated", func() float64 { return float64(c.Evaluator.Stats().PairsEnumerated) })
	reg.GaugeFunc("eval.reevals", func() float64 { return float64(c.Evaluator.Stats().ReEvals) })
	if c.Lease != nil {
		reg.GaugeFunc("lease.flap_denials", func() float64 { return float64(c.Lease.FlapDenials()) })
		reg.GaugeFunc("lease.renewals", func() float64 { return float64(c.Lease.Renewals) })
		reg.GaugeFunc("lease.grants", func() float64 { return float64(len(c.Lease.Grants)) })
		reg.GaugeFunc("failover.promotions", func() float64 { return float64(c.Promotions) })
		reg.GaugeFunc("failover.standdowns", func() float64 { return float64(c.Standdowns) })
		reg.GaugeFunc("failover.rogue_solves", func() float64 { return float64(c.RogueSolves) })
	}
	if c.Delivery != nil {
		reg.GaugeFunc("delivery.injected", func() float64 { return float64(c.Delivery.Injected) })
		reg.GaugeFunc("delivery.delivered", func() float64 { return float64(c.Delivery.Delivered) })
		reg.GaugeFunc("delivery.lost_beyond_grace", func() float64 { return float64(c.Delivery.LostBeyondGrace) })
		reg.GaugeFunc("delivery.max_outage_s", func() float64 { return c.Delivery.MaxOutageS })
	}
	c.Obs.Rec.SetReplica(c.actingID)
}

// CmdDeafDrops counts commands lost to a replica-partition fault (the
// issuing replica's command path was deafened). Thin reader over the
// registry counter that replaced the old struct field.
func (c *Controller) CmdDeafDrops() int { return int(c.obsm.cmdDeafDrops.Count()) }

// ObsSnapshot exports the registry's current state (func-backed gauge
// mirrors evaluated now). Safe to diff byte-for-byte across same-seed
// runs via Snapshot.Encode.
func (c *Controller) ObsSnapshot() obs.Snapshot { return c.Obs.Reg.Snapshot() }

// ObsTrees exports the retained solve-cycle span trees, oldest first
// (nil with tracing disabled).
func (c *Controller) ObsTrees() []*obs.Span { return c.Obs.Tracer.Trees() }

// ObsFlightDump exports the flight recorder's black box — the span,
// metric and event records inside the recorder's lookback window (the
// obs default; nil with tracing disabled). The chaos runner attaches
// this to every invariant violation.
func (c *Controller) ObsFlightDump() *obs.FlightDump { return c.Obs.Rec.Dump() }

// onEnactment is the cdpi completion hook: counters + latency always;
// with tracing on, an "enact" child span back-dated to the dispatch
// instant, attached to the cycle open at completion time (enactments
// outlive their dispatching cycle by design — the TTE alone is minutes
// on satcom). Runs on the sim loop.
func (c *Controller) onEnactment(e cdpi.Enactment) {
	if e.OK {
		c.obsm.enactOK.Inc()
	} else {
		c.obsm.enactFailed.Inc()
	}
	if e.Inferred {
		c.obsm.enactInferred.Inc()
	}
	c.obsm.enactLatency.Observe(e.CompletedAt - e.SubmittedAt)
	if !c.Obs.Enabled() {
		return
	}
	sp := c.Obs.Tracer.Current().ChildAt("enact", e.SubmittedAt)
	sp.SetAttr("kind", e.Kind.String())
	sp.SetAttr("channel", e.Channel.String())
	sp.SetAttrInt("attempts", int(e.Attempts))
	sp.SetAttrBool("ok", e.OK)
	if e.Inferred {
		sp.SetAttrBool("inferred", true)
	}
	sp.EndSpan()
}

// cycleMetricDetail formats the per-cycle flight-recorder metric
// record (strconv only; pushing the record allocates nothing, as
// obs.TestRecorderEventDoesNotAllocate pins).
func cycleMetricDetail(links, routes, unsatisfied int, utility float64) string {
	return "links=" + strconv.Itoa(links) +
		" routes=" + strconv.Itoa(routes) +
		" unsatisfied=" + strconv.Itoa(unsatisfied) +
		" utility=" + strconv.FormatFloat(utility, 'g', -1, 64)
}
