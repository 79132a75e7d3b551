package core

import (
	"fmt"

	"minkowski/internal/cdpi"
	"minkowski/internal/dataplane"
	"minkowski/internal/explain"
	"minkowski/internal/flight"
	"minkowski/internal/geo"
	"minkowski/internal/intent"
	"minkowski/internal/itu"
	"minkowski/internal/linkeval"
	"minkowski/internal/manet"
	"minkowski/internal/nbi"
	"minkowski/internal/obs"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/satcom"
	"minkowski/internal/sim"
	"minkowski/internal/solver"
	"minkowski/internal/telemetry"
	"minkowski/internal/weather"
	"minkowski/internal/wind"
)

// Controller is the running TS-SDN with its simulated world.
type Controller struct {
	Cfg Config
	Eng *sim.Engine

	// Physical truth.
	Wx     *weather.Field
	Wind   *wind.Field
	FMS    *flight.FMS
	Fleet  *platform.Fleet
	Fabric *radio.Fabric

	// Control planes.
	Router   *manet.Fast
	Net      *manet.FabricNet
	Sat      *satcom.Gateway
	InBand   *cdpi.InBand
	Frontend *cdpi.Frontend

	// TS-SDN brain.
	Gauges    []*weather.Gauge
	Forecast  *weather.Forecast
	WxModel   *weather.Fused
	Evaluator *linkeval.Evaluator
	Solver    *solver.Solver
	Data      *dataplane.State
	NBI       *nbi.Service

	// Observation.
	Reach    *telemetry.Reachability
	LinkLife *telemetry.LinkLife
	// Recovery tracks data-plane repairs; RecoveryCtrl tracks
	// control-plane breakage durations (both feed Fig. 8).
	Recovery     *telemetry.Recovery
	RecoveryCtrl *telemetry.Recovery
	Redund       *telemetry.Redundancy
	Churn        *telemetry.Churn
	ModelErr     *telemetry.ModelError
	Log          *explain.Log
	Scrubber     *explain.Scrubber
	SolveRuns    int

	// Robustness (chaos harness + crash-restart reconciliation).
	// The embedded ctlState is the ACTING control process's state —
	// intent store, dispatch journal, arm tracking, last plan, fencing
	// epoch. Field promotion keeps the rest of the controller reading
	// c.Intents / c.Journal unchanged; a standby promotion swaps the
	// whole struct at once.
	ctlState
	// Crashes / Readopted / ExpiredOnRestart / DuplicateEstablishes
	// are the restart-safety counters the chaos acceptance test reads:
	// DuplicateEstablishes counts first-attempt establish commands
	// issued for links that are already up and still journaled —
	// re-actuation of work the controller's durable record says it
	// already did. Correct restart reconciliation keeps this at zero.
	Crashes, Readopted, ExpiredOnRestart, DuplicateEstablishes int
	// PosGuard gates self-reported node positions (byzantine defense).
	PosGuard *telemetry.PositionGuard

	// Replication (primary/standby failover). Lease is the leadership
	// cell both replicas race for; Repl is the journal stream the warm
	// standby tails. Both are nil when Cfg.ReplicationEnabled is false.
	Lease *LeaseService
	Repl  *Replicator
	// Promotions / Standdowns / RogueSolves count failover activity:
	// standby promotions, deposed-primary standdowns at partition
	// heal, and solve cycles a deposed primary ran while partitioned.
	Promotions, Standdowns, RogueSolves int

	// Delivery is the end-to-end delivery accounting behind
	// inv-dataplane-delivery (nil unless Cfg.DeliveryProbeS > 0).
	Delivery *dataplane.DeliveryMeter

	// Obs is the deterministic observability bundle (DESIGN §11):
	// metrics registry (always live — it stores CmdDeafDrops),
	// solve-cycle span tracer, and flight recorder (both gated on
	// Cfg.ObsEnabled). obsm holds the interned hot-path handles.
	Obs  *obs.Obs
	obsm obsMetrics

	gateways []string
	todOff   float64
	// rogue is the deposed ex-primary's still-running control process
	// during a controller partition (nil otherwise).
	rogue *ctlState
	// actingID / standbyID name which replica holds each role.
	actingID, standbyID string
	// standbyDown marks the standby seat empty (replica dead, or not
	// yet rejoined after a promotion).
	standbyDown bool
	// leasePartitioned blocks the acting primary from reaching the
	// lease service and the replication stream (controller-partition).
	leasePartitioned bool
	wasOn            map[string]bool
	// linkFails remembers recent establishment failures per pair for
	// the adaptive-penalty feedback loop (§7 future work).
	linkFails map[radio.LinkID]*failMemory
	// churn is the Fig. 4 sampler's memory: the link identities of the
	// previous minute's and hour's candidate graphs, kept by value
	// (the graphs themselves are overwritten by the evaluator's next
	// call) in buffers reused from sample to sample.
	churn struct {
		cur, prevMin, prevHour []radio.LinkID
		haveMin, haveHour      bool
	}
	// lastEvalStats snapshots the evaluator's cumulative work counters
	// at the previous solve cycle, for per-cycle telemetry deltas.
	lastEvalStats linkeval.Stats
	// down marks the controller process crashed: its periodic loops
	// skip work until restart. The physical world and node agents run
	// on regardless.
	down bool
	// gwDown marks ground-station sites lost to chaos.
	gwDown map[string]bool
	// gaugesFrozen stops gauge telemetry ingestion (chaos:
	// telemetry-staleness fault).
	gaugesFrozen bool
	// solverDown fails every solve (chaos: solver brown-out); the
	// controller keeps actuating its last-known-good plan.
	solverDown bool
	// byzantine marks nodes under an active byzantine-telemetry fault:
	// their agents report spoofed positions and margins.
	byzantine map[string]bool
	// cmdDeaf marks replicas under an active replica-partition fault:
	// commands that replica dispatches toward the CDPI are lost.
	cmdDeaf map[string]bool
	// preFix marks a NewPreFix controller: self-reported positions skip
	// the telemetry guard and are adopted blindly into reported.
	preFix   bool
	reported map[string]geo.LLA
}

// New builds and wires a controller; call Run to simulate.
func New(cfg Config) *Controller { return build(cfg, false) }

// NewPreFix builds a controller without the three fixes the chaos
// search forced: agents enact stale-epoch commands (split brain), the
// position-plausibility guard is off, and the in-band node → EC
// direction reuses the EC → node path (ghost heartbeats under partial
// partitions). It exists so the committed chaos repros can show they
// still violate; nothing an operator would run calls it.
func NewPreFix(cfg Config) *Controller { return build(cfg, true) }

func build(cfg Config, preFix bool) *Controller {
	eng := sim.New(cfg.Seed)
	ob, obsm := newObs(cfg, eng.Now)
	wcfg := weather.DefaultConfig()
	wcfg.Region = cfg.Region
	wcfg.Season = cfg.Season
	wcfg.Seed = cfg.Seed ^ 0x77
	if cfg.WeatherCellsPerHour > 0 {
		wcfg.CellSpawnPerHour = cfg.WeatherCellsPerHour
	}
	wx := weather.NewField(wcfg)

	windCfg := wind.DefaultConfig()
	windCfg.Seed = cfg.Seed ^ 0x1234
	wd := wind.NewField(windCfg)

	target := cfg.Region.Center(0)
	fmsCfg := flight.DefaultConfig(target)
	fmsCfg.FleetSize = cfg.FleetSize
	fmsCfg.Seed = cfg.Seed ^ 0xBEEF
	fms := flight.NewFMS(fmsCfg, wd)

	var grounds []*platform.Node
	var gateways []string
	for _, spec := range cfg.GroundStations {
		grounds = append(grounds, platform.NewGroundStation(spec.ID, spec.Pos, spec.Terrain))
		gateways = append(gateways, spec.ID)
	}
	fleet := platform.NewFleet(fms, grounds)

	fabric := radio.NewFabric(eng, wx, fleet.IDs, radio.DefaultConfig())
	net := &manet.FabricNet{Fabric: fabric, Fleet: fleet}
	router := manet.NewFast(eng, net, 2.0)
	fabric.OnUp = nil // set below after controller exists

	sat := satcom.NewGateway(eng, satcom.DefaultProviders())
	ib := &cdpi.InBand{
		Eng: eng, Router: router, Net: net, Gateways: gateways,
		WiredOneWayS: 0.025, SymmetricCompat: preFix,
	}
	agentCfg := cdpi.DefaultAgentConfig()
	if cfg.AgentConnCheckS > 0 {
		agentCfg.ConnCheckIntervalS = cfg.AgentConnCheckS
		agentCfg.HeartbeatIntervalS = cfg.AgentConnCheckS
	}
	agentCfg.DisableEpochFencing = preFix
	feCfg := cdpi.DefaultFrontendConfig()
	if cfg.TTESatcomOverrideS > 0 {
		feCfg.TTESatcomS = cfg.TTESatcomOverrideS
	}
	fe := cdpi.NewFrontend(eng, sat, ib, feCfg, agentCfg)

	// Weather model: gauges at every GS + 12-hourly forecasts +
	// climatology backstop, fused freshest-first. The WeatherSources
	// ablation narrows the input set.
	var gauges []*weather.Gauge
	var sources []weather.Source
	useGauges := cfg.WeatherSources == "" || cfg.WeatherSources == "all" || cfg.WeatherSources == "gauges"
	useClim := cfg.WeatherSources == "" || cfg.WeatherSources == "all" || cfg.WeatherSources == "itu"
	for i, spec := range cfg.GroundStations {
		g := weather.NewGauge(spec.Pos, wx, cfg.Seed^int64(100+i))
		gauges = append(gauges, g)
		if useGauges {
			sources = append(sources, g)
		}
	}
	if useClim {
		sources = append(sources, &weather.Climatology{Model: itu.DefaultRegionalModel(), Season: cfg.Season})
	}
	fused := &weather.Fused{
		Sources: sources, MaxAge: 1800,
		StaleAfterS: weatherStaleAfterS, StalePenalty: weatherStalePenalty,
	}

	solverCfg := solver.DefaultConfig()
	if cfg.RedundancyTargetFrac >= 0 {
		solverCfg.RedundancyTargetFrac = cfg.RedundancyTargetFrac
	}
	if cfg.SolverHysteresisBonus >= 0 {
		solverCfg.HysteresisBonus = cfg.SolverHysteresisBonus
	}

	c := &Controller{
		Cfg: cfg, Eng: eng, Obs: ob, obsm: obsm,
		Wx: wx, Wind: wd, FMS: fms, Fleet: fleet, Fabric: fabric,
		Router: router, Net: net, Sat: sat, InBand: ib, Frontend: fe,
		Gauges: gauges, WxModel: fused,
		Solver: solver.New(solverCfg),
		ctlState: ctlState{
			Intents: intent.NewStore(),
			Journal: NewJournal(),
			arms:    map[radio.LinkID]*armState{},
			replica: "ctl-a",
		},
		Data:         dataplane.NewState(),
		NBI:          nbi.NewService(),
		Reach:        telemetry.NewReachability(reachabilityPeriodS),
		LinkLife:     telemetry.NewLinkLife(),
		Recovery:     telemetry.NewRecovery(),
		RecoveryCtrl: telemetry.NewRecovery(),
		Redund:       &telemetry.Redundancy{},
		Churn:        &telemetry.Churn{},
		ModelErr:     &telemetry.ModelError{MaxAbsDB: marginRejectDB},
		PosGuard:     telemetry.NewPositionGuard(),
		Log:          &explain.Log{Cap: 200000},
		Scrubber:     &explain.Scrubber{Cap: 5000},
		gateways:     gateways,
		todOff:       cfg.StartTODHours * 3600,
		wasOn:        map[string]bool{},
		linkFails:    map[radio.LinkID]*failMemory{},
		gwDown:       map[string]bool{},
		byzantine:    map[string]bool{},
		cmdDeaf:      map[string]bool{},
		preFix:       preFix,
		reported:     map[string]geo.LLA{},
	}
	if cfg.DeliveryProbeS > 0 {
		c.Delivery = dataplane.NewDeliveryMeter(deliveryGraceS)
	}
	evalCfg := linkeval.DefaultConfig()
	evalCfg.DropMarginal = cfg.DropMarginalLinks
	c.Evaluator = linkeval.New(evalCfg, fused, c.predictPosition)

	fabric.OnUp = c.onLinkUp
	fabric.OnDown = c.onLinkDown
	fe.OnPositionReport = c.onPositionReport
	fe.OnEnactment = c.onEnactment
	// Register every initial node's SDN agent now — ground stations
	// never appear in fleet join events, and the first solve cycle
	// fires before the first fleet step.
	for _, n := range fleet.Nodes() {
		c.registerNode(n)
	}
	fleet.DrainEvents() // initial joins are handled
	if cfg.ReplicationEnabled {
		// Replica ctl-a starts as primary (it takes the lease at t=0,
		// epoch 1) with ctl-b as its warm standby, bootstrapped from a
		// snapshot of the (empty) journal and tailing every write.
		c.actingID, c.standbyID = "ctl-a", "ctl-b"
		c.Lease = &LeaseService{TTLS: leaseTTLS}
		ep, _ := c.Lease.Acquire(c.actingID, 0)
		c.epoch = ep
		c.Repl = NewReplicator(eng, replDelayS)
		c.attachStandby()
	}
	c.installObs()
	c.install()
	return c
}

// predictPosition serves the Link Evaluator: current GPS position at
// lead 0; the FMS's frozen-field trajectory forecast for future
// leads. When telemetry overrides the controller's belief (a
// quarantined node's frozen fix, or a blindly-adopted report with the
// guard disabled), that estimate is served for every lead — the
// controller has no trajectory model for a position it didn't derive.
func (c *Controller) predictPosition(n *platform.Node, lead float64) (p geo.LLA) {
	if est, ok := c.estimatedPosition(n); ok {
		return est
	}
	if n.Kind == platform.KindGround || lead <= 0 {
		return n.Position()
	}
	pts := c.FMS.PredictTrajectory(n.Balloon, lead, lead)
	if len(pts) == 0 {
		return n.Position()
	}
	return pts[len(pts)-1].Pos
}

// install schedules every periodic process.
func (c *Controller) install() {
	eng := c.Eng
	// Physical world: weather and flight at 1-minute ticks.
	eng.Every(60, func() bool {
		c.Wx.Step(60)
		c.stepFleet(60)
		return true
	})
	// Gauges sample each minute; forecasts refresh every 12 h. A
	// telemetry-staleness fault freezes gauge ingestion; a controller
	// crash stops forecast ingestion (it is a controller process).
	eng.Every(60, func() bool {
		if c.gaugesFrozen {
			return true
		}
		for _, g := range c.Gauges {
			g.Sample()
		}
		return true
	})
	eng.Every(12*3600, func() bool {
		if c.down {
			return true
		}
		c.Forecast = weather.Issue(c.Wx, weather.DefaultForecastConfig(), c.Cfg.Seed^int64(c.Eng.Now()))
		c.rebuildFusion()
		c.Log.Append(eng.Now(), explain.EvWeather, "forecast", "new ECMWF-style forecast ingested")
		return true
	})
	// LTE service management + drains.
	eng.Every(60, func() bool {
		if c.down {
			return true
		}
		c.manageService()
		c.NBI.Tick(eng.Now(), c.Data.TraversedBy)
		return true
	})
	// The solve cycle.
	eng.Every(c.Cfg.SolveIntervalS, func() bool {
		if c.down {
			return true
		}
		c.solveCycle()
		return true
	})
	// Telemetry sampling.
	eng.Every(telemetrySampleS, func() bool {
		c.sampleTelemetry()
		return true
	})
	// Fine-grained recovery sampling (short breaks must be seen).
	eng.Every(5, func() bool {
		c.sampleRecovery()
		return true
	})
	// End-to-end delivery probes (optional; inv-dataplane-delivery).
	// Deliberately NOT gated on c.down: the meter measures the DATA
	// plane, which keeps forwarding (or failing to) while the control
	// process is dead — control-plane outages show up as excused
	// (uncontrollable) drops, not missing samples.
	if c.Cfg.DeliveryProbeS > 0 {
		eng.Every(c.Cfg.DeliveryProbeS, func() bool {
			c.probeDelivery()
			return true
		})
	}
	// Churn sampling (optional).
	if c.Cfg.ChurnSampling {
		eng.Every(60, func() bool {
			c.sampleChurn()
			return true
		})
	}
	// Lease renew/watch loop (replication only). Deliberately NOT
	// gated on c.down: the standby replica's watchdog is exactly what
	// must keep running while the primary process is dead.
	if c.Cfg.ReplicationEnabled {
		eng.Every(leaseCheckS, func() bool {
			c.leaseTick()
			return true
		})
	}
}

// stepFleet advances flight + power and reconciles membership.
func (c *Controller) stepFleet(dt float64) {
	now := c.Eng.Now()
	c.Fleet.Step(now+c.todOff, dt)
	if c.Cfg.DisablePower {
		for _, n := range c.Fleet.Balloons {
			n.Power.CommsOn = true
			n.Power.BatteryWh = platform.BatteryCapacityWh
		}
	}
	joined, left := c.Fleet.DrainEvents()
	for _, n := range joined {
		c.registerNode(n)
		c.Log.Append(now, explain.EvNodeJoin, n.ID, "joined the fleet")
	}
	for _, n := range left {
		c.Log.Append(now, explain.EvNodeLeave, n.ID, "left the fleet (recycled)")
		c.Fabric.FailNode(n.ID, radio.ReasonGeometry)
		c.Frontend.Unregister(n.ID)
		c.Data.FlushNode(n.ID)
		c.NBI.ReleaseBackhaul(n.ID)
	}
	// Power transitions: flush hardware state on power-down. ID order,
	// not map order: when two balloons power down in one step, the order
	// of the FailNode calls decides what mesh the first one's OnDown
	// callbacks see and how the log reads.
	for _, n := range c.Fleet.Nodes() {
		if n.Kind != platform.KindBalloon {
			continue
		}
		id := n.ID
		on := n.Operational()
		if c.wasOn[id] && !on {
			c.Fabric.FailNode(id, radio.ReasonPowerLoss)
			c.Data.FlushNode(id)
			c.Log.Append(now, explain.EvNodeLeave, id, "payload powered down")
		}
		if !c.wasOn[id] && on {
			c.Log.Append(now, explain.EvNodeJoin, id, "payload powered up (daily bootstrap)")
		}
		c.wasOn[id] = on
	}
}

// registerNode attaches a CDPI agent to a node.
func (c *Controller) registerNode(n *platform.Node) {
	node := n.ID
	a := c.Frontend.Register(node, cdpi.EnactorFunc(func(cmd *cdpi.Command, done func(bool)) {
		c.enact(node, cmd, done)
	}))
	c.attachReporter(a)
	// Seed the plausibility gate with the controller's own model, so a
	// byzantine node cannot poison the reference with its first report.
	c.PosGuard.Seed(node, n.Position(), c.Eng.Now())
	c.wasOn[node] = n.Operational()
}

// rebuildFusion refreshes the fused source ordering after a new
// forecast, honoring the WeatherSources ablation.
func (c *Controller) rebuildFusion() {
	ws := c.Cfg.WeatherSources
	var sources []weather.Source
	if ws == "" || ws == "all" || ws == "gauges" {
		for _, g := range c.Gauges {
			sources = append(sources, g)
		}
	}
	if c.Forecast != nil && (ws == "" || ws == "all" || ws == "forecast") {
		sources = append(sources, c.Forecast)
	}
	if ws == "" || ws == "all" || ws == "itu" {
		sources = append(sources, &weather.Climatology{Model: itu.DefaultRegionalModel(), Season: c.Cfg.Season})
	}
	c.WxModel.Sources = sources
	c.Evaluator.Weather = c.WxModel
}

// manageService emulates the LTE management stack: balloons in the
// region with power get backhaul requests; others are released.
func (c *Controller) manageService() {
	for _, n := range c.Fleet.Nodes() {
		if n.Kind != platform.KindBalloon {
			continue
		}
		inRegion := c.Cfg.Region.Contains(n.Position())
		if inRegion && n.Operational() {
			c.NBI.RequestBackhaul(n.ID, dataplane.FlowClassifier{
				SrcPrefix: n.ID + "::/64", DstPrefix: "epc::/64",
				MinBitrateBps: backhaulBitrateBps,
			}, "rg-"+n.ID)
		} else {
			c.NBI.ReleaseBackhaul(n.ID)
		}
	}
}

// solveCycle runs evaluator → solver → reconcile → actuate, with the
// degraded modes of §6: stale weather flips the fused model into its
// penalized fallback chain, a solver outage keeps the last-known-good
// plan actuating, and lost gateway sites drop out of the input.
func (c *Controller) solveCycle() {
	now := c.Eng.Now()
	c.SolveRuns++
	sp := c.Obs.Tracer.StartCycle("solve-cycle")
	sp.SetAttrInt("cycle", c.SolveRuns)
	defer sp.EndSpan()
	c.checkWeatherStaleness()
	c.evictFailMemory()
	if c.solverDown {
		// Degraded mode: the solver is failing or timing out. Keep the
		// last-known-good plan in force — realign route state toward it
		// but author nothing new.
		c.obsm.solveHolds.Inc()
		sp.SetAttrBool("held", true)
		c.Log.Appendf(now, explain.EvAnomaly, fmt.Sprintf("cycle-%d", c.SolveRuns),
			"solver unavailable; holding last-known-good plan")
		c.realignRoutes()
		return
	}
	xcvrs := c.Fleet.Transceivers()
	if len(xcvrs) == 0 {
		sp.SetAttrBool("empty", true)
		return
	}
	ev := sp.Child("evaluate")
	graph := c.Evaluator.CandidateGraph(xcvrs, c.Cfg.PredictiveLeadS)
	evalDelta := c.Evaluator.Stats().Sub(c.lastEvalStats)
	c.lastEvalStats = c.Evaluator.Stats()
	ev.SetAttrInt("candidates", len(graph))
	ev.SetAttrInt("pairs", int(evalDelta.PairsEnumerated))
	ev.SetAttrInt("reevals", int(evalDelta.ReEvals))
	ev.EndSpan()
	existing := map[radio.LinkID]bool{}
	for _, l := range c.Fabric.UpLinks() {
		existing[l.ID] = true
	}
	in := solver.Input{
		Candidates: graph,
		Requests:   c.NBI.SolverRequests(),
		Existing:   existing,
		Gateways:   c.liveGateways(),
		Drained:    c.drainedWithChaos(),
		Penalties:  c.adaptivePenalties(),
	}
	so := sp.Child("solve")
	solveBefore := c.Solver.Stats()
	plan := c.Solver.Solve(in)
	work := c.Solver.Stats().Sub(solveBefore)
	so.SetAttrInt("dijkstra_runs", int(work.DijkstraRuns))
	so.SetAttrInt("adj_scanned", int(work.AdjScanned))
	so.SetAttrInt("heap_pushes", int(work.HeapPushes))
	so.SetAttrInt("links", len(plan.Links))
	so.SetAttrInt("routes", len(plan.Routes))
	so.SetAttrInt("unsatisfied", len(plan.Unsatisfied))
	so.SetAttrFloat("utility", plan.Utility)
	so.EndSpan()
	c.lastPlan = plan
	c.realignRoutes()
	c.Log.Appendf(now, explain.EvSolve, fmt.Sprintf("cycle-%d", c.SolveRuns),
		"candidates=%d links=%d redundant=%d routes=%d unsatisfied=%d utility=%.0f evalpairs=%d reevals=%d",
		len(graph), len(plan.Links), plan.RedundantCount(), len(plan.Routes), len(plan.Unsatisfied), plan.Utility,
		evalDelta.PairsEnumerated, evalDelta.ReEvals)
	di := sp.Child("dispatch")
	acts := c.Intents.Reconcile(plan, now)
	c.actuate(acts)
	di.SetAttrInt("establish", len(acts.EstablishLinks))
	di.SetAttrInt("withdraw", len(acts.WithdrawLinks))
	di.SetAttrInt("program_routes", len(acts.ProgramRoutes))
	di.SetAttrInt("remove_routes", len(acts.RemoveRoutes))
	di.EndSpan()
	c.Obs.Rec.Metric("solve-cycle",
		cycleMetricDetail(len(plan.Links), len(plan.Routes), len(plan.Unsatisfied), plan.Utility))
	// Snapshot for the scrubber.
	c.snapshot(plan)
}

// snapshot records the current physical+logical state.
func (c *Controller) snapshot(plan *solver.Plan) {
	snap := explain.Snapshot{
		At:        c.Eng.Now(),
		Intents:   map[string]string{},
		Routes:    map[string][]string{},
		Positions: map[string]geo.LLA{},
		Value:     plan.Utility,
	}
	for _, l := range c.Fabric.UpLinks() {
		snap.Links = append(snap.Links, l.ID.String())
	}
	for _, li := range c.Intents.ActiveLinks() {
		snap.Intents[li.Link.String()] = li.State.String()
	}
	for _, ri := range c.Intents.ActiveRoutes() {
		snap.Routes[ri.ID] = ri.Path
	}
	for _, n := range c.Fleet.Nodes() {
		snap.Positions[n.ID] = n.Position()
	}
	c.Scrubber.Record(snap)
}

// Run simulates until the given time (seconds).
func (c *Controller) Run(until float64) { c.Eng.Run(until) }

// RunHours simulates for the given number of hours from now.
func (c *Controller) RunHours(h float64) { c.Eng.Run(c.Eng.Now() + h*3600) }

// LastPlan returns the most recent solver output.
func (c *Controller) LastPlan() *solver.Plan { return c.lastPlan }

// TOD returns the local time of day in hours at the current instant.
func (c *Controller) TOD() float64 {
	tod := c.Eng.Now() + c.todOff
	for tod >= 86400 {
		tod -= 86400
	}
	return tod / 3600
}
