// Package core is Minkowski itself: the Temporospatial SDN controller
// that wires every substrate together — weather truth and estimates,
// wind and flight, platforms and power, the radio fabric, the MANET,
// the hybrid satcom/in-band control plane, the Link Evaluator, the
// Solver, the intent/actuation layer, the data plane, the northbound
// interface, telemetry, and explainability (§2.3, Fig. 3/5).
//
// A Controller plus its World is one complete, deterministic
// simulation of the Loon network; every figure in EXPERIMENTS.md is
// produced by running one and reading its telemetry.
package core

import (
	"minkowski/internal/antenna"
	"minkowski/internal/backoff"
	"minkowski/internal/geo"
	"minkowski/internal/itu"
	"minkowski/internal/weather"
)

// GroundStationSpec places one gateway site.
type GroundStationSpec struct {
	ID        string
	Pos       geo.LLA
	Terrain   []antenna.Occlusion
	ECLatency float64 // wired EC one-way seconds
}

// Config assembles a scenario.
type Config struct {
	// Seed drives every random stream.
	Seed int64
	// Region is the service region.
	Region weather.Region
	// Season selects climatology and weather intensity.
	Season itu.Season
	// FleetSize is the balloon count.
	FleetSize int
	// GroundStations places the gateway sites (the paper operated
	// three).
	GroundStations []GroundStationSpec

	// SolveIntervalS is the solve-cycle cadence.
	SolveIntervalS float64
	// PredictiveLeadS is how far ahead the Link Evaluator looks when
	// feeding the solver. 0 disables prediction (the reactive
	// ablation of the paper's headline comparison).
	PredictiveLeadS float64
	// AgentConnCheckS is the SDN agents' connectivity probe cadence
	// (1 s in production; coarser keeps long simulations fast).
	AgentConnCheckS float64
	// ChurnSampling enables per-minute candidate-graph diffs (Fig. 4;
	// expensive — only enable for that experiment).
	ChurnSampling bool
	// StartTODHours sets the local time of day at sim t=0 (09:00
	// default: nodes powered, service running).
	StartTODHours float64
	// RedundancyTargetFrac forwards to the solver's secondary
	// objective.
	RedundancyTargetFrac float64
	// WeatherCellsPerHour scales convective activity.
	WeatherCellsPerHour float64
	// DisablePower keeps every payload on permanently (ablations and
	// tests that don't want the diurnal cycle).
	DisablePower bool

	// --- Observability knobs (internal/obs, DESIGN §11) -------------

	// ObsEnabled turns on the solve-cycle span tracer and the flight
	// recorder. The metrics registry is always live regardless (it is
	// the storage behind several telemetry counters). Tracing never
	// feeds back into control decisions — plans, journals, and digests
	// are byte-identical either way — so DefaultConfig enables it; the
	// zero Config leaves it off for legacy scenarios.
	ObsEnabled bool

	// --- Robustness knobs -------------------------------------------

	// DeliveryProbeS enables end-to-end delivery accounting when > 0:
	// every DeliveryProbeS seconds the controller offers one synthetic
	// probe per in-service balloon's declared backhaul route and
	// classifies it into the dataplane.DeliveryMeter (delivered /
	// excused / lost-beyond-grace). 0 (the default) keeps the meter off
	// so legacy scenarios are byte-identical.
	DeliveryProbeS float64
	// EstablishRetry paces link-establishment re-dispatch between
	// attempts. The zero value preserves the paper's production
	// behaviour — "links were retried repeatedly", immediately; set a
	// policy to adopt the unified capped-exponential backoff.
	// EXPERIMENTS.md §retry-policy compares both and settles the
	// default: backoff saves no re-dispatches here but costs real
	// availability (even second-scale waits burn short-lived
	// candidate windows), so the default stays immediate. Backoff
	// remains the right tool where the channel itself is expensive
	// (satcom command retries already use it).
	EstablishRetry backoff.Policy

	// --- Controller replication (primary/standby failover) ----------

	// ReplicationEnabled runs the control plane as a replicated pair: a
	// primary holding a renewable leadership lease (leaseTTLS) plus a
	// warm standby tailing the journal stream, promoting itself (with a
	// fresh fencing epoch) when the lease lapses. Off by default so
	// legacy single-controller scenarios stay byte-identical.
	ReplicationEnabled bool

	// --- Ablation knobs (zero values = production behaviour) ---

	// SolverHysteresisBonus overrides the solver's hysteresis when
	// >= 0 (set to 0 for the no-hysteresis ablation; -1 or unset
	// keeps the default).
	SolverHysteresisBonus float64
	// DropMarginalLinks removes marginal candidates entirely (the
	// marginal-retention ablation of §3.1/§5).
	DropMarginalLinks bool
	// TTESatcomOverrideS overrides the satcom TTE policy when > 0
	// (the §4.2 TTE-selection ablation; the production value is the
	// p95 one-way delay, 186 s).
	TTESatcomOverrideS float64
	// WeatherSources selects the solver's weather inputs: "" or
	// "all" (gauges+forecast+climatology), "gauges", "forecast",
	// "itu" (the §5 weather-fusion ablation).
	WeatherSources string
	// AdaptiveLinkPenalty enables the §7 future-work feedback loop:
	// candidate pairs whose recent establishment attempts failed are
	// penalized in solving (decaying over ~20 min), so the solver
	// tries alternates instead of retrying a cursed pair forever.
	// Off by default: the paper's production system "lacked a
	// feedback loop and relied on modeled data".
	AdaptiveLinkPenalty bool
}

const (
	// leaseTTLS is the leadership lease time-to-live: a primary that
	// cannot renew within it is considered dead and the standby may
	// take over.
	leaseTTLS = 30
	// leaseCheckS is the lease renew/watch cadence of both replicas.
	leaseCheckS = 5
	// replDelayS is the one-way journal-stream latency primary →
	// standby (datacenter-to-datacenter).
	replDelayS = 0.5
	// deliveryGraceS is the delivery meter's bounded-loss repair
	// allowance: a route may sit reachable-but-undelivered for this
	// many accumulated controllable seconds before drops count as lost
	// (inv-dataplane-delivery) — several solve cycles plus the
	// route-stagger window.
	deliveryGraceS = 600
	// marginRejectDB bounds the |measured − modelled| link margin
	// admitted into the Fig. 10 calibration sample: honest model error
	// is a few dB, so anything beyond it is treated as byzantine or
	// broken instrumentation and dropped.
	marginRejectDB = 30
	// reachabilityPeriodS is the reachability tracker's aggregation
	// period: one day.
	reachabilityPeriodS = 86400
	// telemetrySampleS is the reachability sampling cadence.
	telemetrySampleS = 30
	// maxEstablishAttempts bounds per-intent link retries ("95% of
	// installed links succeeding within 2 and 3 attempts").
	maxEstablishAttempts = 3
	// backhaulBitrateBps is each balloon's requested backhaul.
	backhaulBitrateBps = 50e6
	// failMemoryHorizonS evicts adaptive-penalty failure memory whose
	// last failure is older than this, bounding the linkFails map over
	// long runs.
	failMemoryHorizonS = 3600
	// weatherStaleAfterS is the fused-model age beyond which the
	// controller declares its weather inputs stale and flips the model
	// into Degraded mode (stale-fallback chain + pessimism penalty).
	weatherStaleAfterS = 1800
	// weatherStalePenalty multiplies rain estimates served from stale
	// sources in Degraded mode (> 1 = conservative).
	weatherStalePenalty = 1.5
	// routeStaggerS spreads the per-node enactment times of a route
	// *re*program across this window. The paper's actuation layer
	// "lacked the sequencing of updates to avoid temporary routing
	// blackholes" — withdrawn links therefore broke routes for the
	// rollout duration before the replacement path took over, which
	// is what Fig. 8's withdrawn-caused recoveries measure.
	routeStaggerS = 60
)

// DefaultConfig is a Kenya-like deployment ready for experiments.
func DefaultConfig() Config {
	nairobi := geo.LLADeg(-1.32, 36.83, 1700)
	kisumu := geo.LLADeg(-0.09, 34.77, 1200)
	nakuru := geo.LLADeg(-0.28, 36.07, 1850)
	// Each site has surveyed terrain in its obstruction mask plus an
	// UNMODELED obstruction (new construction, foliage growth) the
	// mask has gone stale on — the §5 phenomenology that makes
	// ground-terminated links brittle.
	terrain := func(ridgeAzDeg, staleAzDeg float64) []antenna.Occlusion {
		return []antenna.Occlusion{
			{AzMin: geo.Deg(ridgeAzDeg), AzMax: geo.Deg(ridgeAzDeg + 35), ElMax: geo.Deg(3), Label: "ridge"},
			{AzMin: geo.Deg(staleAzDeg), AzMax: geo.Deg(staleAzDeg + 50), ElMax: geo.Deg(6), Label: "new-construction", Unmodeled: true},
		}
	}
	return Config{
		Seed:      1,
		Region:    weather.KenyaRegion(),
		Season:    itu.ShortRains,
		FleetSize: 20,
		GroundStations: []GroundStationSpec{
			{ID: "gs-nairobi", Pos: nairobi, Terrain: terrain(200, 20), ECLatency: 0.02},
			{ID: "gs-kisumu", Pos: kisumu, Terrain: terrain(90, 290), ECLatency: 0.03},
			{ID: "gs-nakuru", Pos: nakuru, Terrain: terrain(310, 140), ECLatency: 0.025},
		},
		SolveIntervalS:        120,
		ObsEnabled:            true,
		PredictiveLeadS:       180,
		AgentConnCheckS:       10,
		StartTODHours:         9,
		SolverHysteresisBonus: -1,
		RedundancyTargetFrac:  0.7,
		WeatherCellsPerHour:   6,
	}
}
