// Package minkowski is a from-scratch reproduction of Loon's
// Temporospatial SDN ("Minkowski") from "SDN in the Stratosphere:
// Loon's Aerospace Mesh Network" (SIGCOMM 2022), together with a
// deterministic simulation of the physical world it orchestrated:
// stratospheric balloons riding layered winds, E band point-to-point
// radio links, tropical weather, satellite command channels, and a
// MANET-routed in-band control plane.
//
// # Quick start
//
//	sim := minkowski.NewSimulation(minkowski.DefaultScenario())
//	sim.RunHours(4)
//	fmt.Println(sim.Summary())
//
// The Simulation wraps the internal controller with a stable,
// documented surface: scenario construction, execution, and the
// observability queries (topology, intents, telemetry, event log,
// why-not) the paper's §6 calls for. Every run is a pure function of
// its Scenario (including Seed).
package minkowski

import (
	"fmt"
	"sort"
	"strings"

	"minkowski/internal/chaos"
	"minkowski/internal/core"
	"minkowski/internal/explain"
	"minkowski/internal/geo"
	"minkowski/internal/itu"
	"minkowski/internal/platform"
	"minkowski/internal/stats"
	"minkowski/internal/telemetry"
)

// Scenario configures a simulation. The zero value is not useful;
// start from DefaultScenario and adjust. It holds what a caller sets:
// cadences and thresholds no run ever varied are constants of the
// controller, and the chaos repros' pre-fix mode is not a field here.
type Scenario = core.Config

// GroundStation places one gateway site in a Scenario.
type GroundStation = core.GroundStationSpec

// Season re-exports the climatological seasons.
type Season = itu.Season

// Seasons of the east-African service region.
const (
	DrySeason  = itu.DrySeason
	ShortRains = itu.ShortRains
	LongRains  = itu.LongRains
)

// DefaultScenario returns the paper-inspired Kenya deployment: 20
// balloons station-seeking a service region, three ground stations,
// short-rains weather.
func DefaultScenario() Scenario { return core.DefaultConfig() }

// ChaosScenario scripts a set of faults against a simulation: each
// Fault names a kind, an optional target, a start time, and a
// duration. Injection runs on the simulation's deterministic engine,
// so a seeded chaos run replays bit-for-bit.
type ChaosScenario = chaos.Scenario

// ChaosFault is one scripted fault in a ChaosScenario.
type ChaosFault = chaos.Fault

// ChaosKind enumerates the injectable fault classes.
type ChaosKind = chaos.Kind

// Injectable fault classes.
const (
	ControllerCrash = chaos.ControllerCrash // TS-SDN process dies; journal + fleet survive
	SatcomOutage    = chaos.SatcomOutage    // provider (or "all") stops delivering
	GatewayLoss     = chaos.GatewayLoss     // a ground-station site drops entirely
	ManetPartition  = chaos.ManetPartition  // nodes isolated from the in-band mesh
	AgentReboot     = chaos.AgentReboot     // node agent restarts with config wipe
	TelemetryStale  = chaos.TelemetryStale  // weather gauge ingestion freezes
	SolverOutage    = chaos.SolverOutage    // plan authoring unavailable

	// PartialPartition blocks ONE direction of a mesh edge (target
	// "a>b" silences a's transmissions toward b); the reverse
	// direction keeps working.
	PartialPartition = chaos.PartialPartition
	// ByzantineTelemetry makes a node report spoofed positions and
	// inflated link margins until the window ends.
	ByzantineTelemetry = chaos.ByzantineTelemetry
	// ControllerFailover kills only the acting primary replica; the
	// warm standby promotes itself once the leadership lease lapses.
	ControllerFailover = chaos.ControllerFailover
	// ControllerPartition isolates the acting primary from the lease
	// service and the standby while its process stays live — the
	// split-brain setup that agent-side epoch fencing neutralizes.
	ControllerPartition = chaos.ControllerPartition
)

// InjectFaults schedules a chaos scenario against this simulation.
// Call it before running; faults fire at their scripted times as the
// clock advances. A fault naming a node the fleet does not hold is an
// error, and nothing is scheduled.
func (s *Simulation) InjectFaults(sc ChaosScenario) error {
	_, err := s.c.InstallChaos(sc)
	return err
}

// Simulation is a running TS-SDN world.
type Simulation struct {
	c *core.Controller
}

// NewSimulation builds a simulation from a scenario. Construction is
// cheap; nothing happens until Run.
func NewSimulation(s Scenario) *Simulation {
	return &Simulation{c: core.New(s)}
}

// Controller exposes the underlying controller for advanced use
// (experiment harnesses living inside this module).
func (s *Simulation) Controller() *core.Controller { return s.c }

// Run advances the simulation to the given absolute time in seconds.
func (s *Simulation) Run(untilSeconds float64) { s.c.Run(untilSeconds) }

// RunHours advances the simulation by the given number of hours.
func (s *Simulation) RunHours(h float64) { s.c.RunHours(h) }

// Now returns the current simulation time in seconds.
func (s *Simulation) Now() float64 { return s.c.Eng.Now() }

// --- Topology & state queries ---------------------------------------

// Link describes one installed link.
type Link struct {
	A, B       string // node IDs
	B2G        bool
	BitrateBps float64
	MarginDB   float64
	SideLobe   bool
}

// Links returns the currently installed topology.
func (s *Simulation) Links() []Link {
	var out []Link
	for _, l := range s.c.Fabric.UpLinks() {
		a, b := l.Nodes()
		out = append(out, Link{
			A: a, B: b, B2G: l.IsB2G(),
			BitrateBps: l.Measured.BitrateBps,
			MarginDB:   l.Measured.MarginDB,
			SideLobe:   l.SideLobe,
		})
	}
	return out
}

// Node describes one platform.
type Node struct {
	ID          string
	Kind        string // "balloon" | "ground"
	Position    geo.LLA
	Operational bool
	ControlUp   bool // in-band control-plane reachability
	DataUp      bool // programmed backhaul operable
}

// Nodes returns every platform with its connectivity status.
func (s *Simulation) Nodes() []Node {
	var out []Node
	for _, n := range s.c.Fleet.Nodes() {
		node := Node{
			ID: n.ID, Kind: n.Kind.String(),
			Position:    n.Position(),
			Operational: n.Operational(),
		}
		if n.Kind == platform.KindBalloon {
			node.ControlUp = s.c.InBand.Connected(n.ID)
			node.DataUp = s.dataUp(n.ID)
		}
		out = append(out, node)
	}
	return out
}

func (s *Simulation) dataUp(id string) bool {
	return s.c.Data.Operable("backhaul/"+id, linkChecker{s.c})
}

type linkChecker struct{ c *core.Controller }

func (lc linkChecker) LinkUp(a, b string) bool {
	return lc.c.Fabric.Adjacent(a, b)
}

// Routes returns the programmed source-destination routes (request
// ID → node path).
func (s *Simulation) Routes() map[string][]string {
	out := map[string][]string{}
	for _, r := range s.c.Data.Routes() {
		out[r.ID] = append([]string(nil), r.Path...)
	}
	return out
}

// --- Telemetry --------------------------------------------------------

// Availability returns the three layered availability ratios of
// Fig. 6 accumulated so far: link, control, data.
func (s *Simulation) Availability() (link, control, data float64) {
	return s.c.Reach.Ratio(telemetry.LayerLink),
		s.c.Reach.Ratio(telemetry.LayerControl),
		s.c.Reach.Ratio(telemetry.LayerData)
}

// LinkLifetimes returns the B2G and B2B installed-lifetime samples
// (Fig. 11).
func (s *Simulation) LinkLifetimes() (b2g, b2b *stats.Sample) {
	return &s.c.LinkLife.B2G, &s.c.LinkLife.B2B
}

// RecoveryStats returns the Fig. 8 repair-time samples for
// withdrawn-caused and failed-caused route breakages, and the mean
// improvement fraction of planned over unplanned.
func (s *Simulation) RecoveryStats() (withdrawn, failed *stats.Sample, improvement float64) {
	return &s.c.Recovery.Withdrawn, &s.c.Recovery.Failed, s.c.Recovery.MeanImprovement()
}

// --- Explainability ---------------------------------------------------

// Events returns change-log entries matching the filter.
func (s *Simulation) Events(f explain.Filter) []explain.Event {
	return s.c.Log.Query(f)
}

// StateAt returns the recorded snapshot at or before t (the time
// scrubber).
func (s *Simulation) StateAt(t float64) (explain.Snapshot, bool) {
	return s.c.Scrubber.StateAt(t)
}

// WhyNot explains why the last plan did not include a link between
// two transceivers, identified as "node/xcvr-i".
func (s *Simulation) WhyNot(xcvrA, xcvrB string) string {
	plan := s.c.LastPlan()
	if plan == nil {
		return "no solve has run yet"
	}
	var xa, xb *platform.Transceiver
	for _, n := range s.c.Fleet.Nodes() {
		for _, x := range n.Xcvrs {
			if x.ID == xcvrA {
				xa = x
			}
			if x.ID == xcvrB {
				xb = x
			}
		}
	}
	if xa == nil || xb == nil {
		return "unknown transceiver"
	}
	return explain.WhyNot(s.c.Evaluator, plan, xa, xb)
}

// Summary renders a human-readable status block.
func (s *Simulation) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%s (local %.1fh)\n", stats.FmtDuration(s.Now()), s.c.TOD())
	links := s.Links()
	b2g := 0
	for _, l := range links {
		if l.B2G {
			b2g++
		}
	}
	fmt.Fprintf(&b, "links: %d installed (%d B2G, %d B2B)\n", len(links), b2g, len(links)-b2g)
	nodes := s.Nodes()
	oper, ctrl, data := 0, 0, 0
	for _, n := range nodes {
		if n.Kind != "balloon" {
			continue
		}
		if n.Operational {
			oper++
		}
		if n.ControlUp {
			ctrl++
		}
		if n.DataUp {
			data++
		}
	}
	fmt.Fprintf(&b, "balloons: %d powered, %d control-connected, %d data-connected\n", oper, ctrl, data)
	la, ca, da := s.Availability()
	fmt.Fprintf(&b, "availability: link=%.3f control=%.3f data=%.3f\n", la, ca, da)
	routeIDs := make([]string, 0)
	for id := range s.Routes() {
		routeIDs = append(routeIDs, id)
	}
	sort.Strings(routeIDs)
	fmt.Fprintf(&b, "routes: %d programmed\n", len(routeIDs))
	return b.String()
}
