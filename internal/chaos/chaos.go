// Package chaos is the fault-injection harness: scenario-scripted,
// seeded, discrete-event-driven faults against every layer the paper
// identifies as an operational hazard — the controller's own process
// (§6 restart safety), the satcom providers (§4.1: p99 RTT near 15
// minutes, and sometimes nothing at all), gateway sites, the MANET,
// node agents, and telemetry freshness.
//
// The package knows nothing about the controller: it schedules Fault
// windows on the shared sim.Engine and drives a Hooks struct the
// embedding system (internal/core) wires to real state transitions.
// That inversion keeps chaos scenarios deterministic (same engine,
// same seed, same event order) and lets tests inject faults into any
// subsystem that exposes hooks.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"minkowski/internal/sim"
)

// Kind classifies a fault.
type Kind int

const (
	// ControllerCrash kills the TS-SDN process for the duration; on
	// expiry the controller restarts and must reconcile (§6).
	ControllerCrash Kind = iota
	// SatcomOutage takes a provider down for the duration. Target is
	// the provider name ("leo", "geo") or "all" for both.
	SatcomOutage
	// GatewayLoss takes a ground-station site offline (links killed,
	// in-band gateway unavailable, excluded from solving). Target is
	// the ground-station node ID.
	GatewayLoss
	// ManetPartition isolates nodes from the in-band mesh for the
	// duration. Target is a comma-separated node-ID list.
	ManetPartition
	// AgentReboot reboots a node's SDN agent with a config wipe at
	// the start time (Duration is ignored — reboots are impulses).
	// Target is the node ID.
	AgentReboot
	// TelemetryStale freezes weather-telemetry ingestion (gauges stop
	// reporting; clocks skew) for the duration, forcing the degraded
	// gauge → forecast → climatology chain.
	TelemetryStale
	// SolverOutage makes every solve cycle fail for the duration; the
	// controller must keep actuating its last-known-good plan.
	SolverOutage
	// PartialPartition blocks ONE direction of the in-band mesh:
	// Target is "a>b", meaning transmissions from a toward b are lost
	// (b no longer hears a) while the reverse direction keeps working.
	// Asymmetric loss is the MANET failure mode symmetric partitions
	// cannot express: routing tables stay plausible while one
	// direction of every path through the edge is dead.
	PartialPartition
	// ByzantineTelemetry makes a node report WRONG state (spoofed GPS
	// positions, inflated link margins) rather than stale state.
	// Target is the node ID. The controller must reject or quarantine
	// implausible reports instead of planning on them.
	ByzantineTelemetry
	// ControllerFailover kills ONLY the acting primary controller
	// process; the warm standby replica survives and must promote
	// itself when the leadership lease lapses. At window end the
	// failed replica returns as the new standby (roles swap — there is
	// no fail-back). Unlike ControllerCrash, the control plane as a
	// whole is supposed to recover within a lease TTL, not a restart.
	ControllerFailover
	// ControllerPartition isolates the acting primary from the lease
	// service and the replication stream while leaving its process
	// RUNNING: it keeps solving and dispatching commands it no longer
	// has the authority to issue. The standby promotes when the lease
	// lapses; epoch fencing at the agents is what must stop the
	// deposed ex-leader from causing split-brain double-enactment.
	ControllerPartition
	// LeaseFlap makes the leadership lease cell ITSELF unreliable for
	// the duration: every Acquire and Renew request is dropped (reads
	// keep working). If the window outlasts the lease TTL the acting
	// primary's lease lapses with the process perfectly healthy, and
	// nobody — primary or standby — can take a fresh lease until the
	// cell heals. The single-leader and bounded-promotion properties
	// must degrade gracefully rather than split the brain.
	LeaseFlap
	// ReplicaPartition deafens the command path of ONE controller
	// replica: commands that replica dispatches toward the CDPI
	// frontend are lost for the duration, while its lease traffic,
	// replication stream, and telemetry ingestion keep working. Target
	// is the replica name ("ctl-a", "ctl-b"). Applied to a deposed
	// rogue this is the "rogue with reduced dispatch reach" case;
	// applied to the acting primary it is a live controller that can
	// see but not steer.
	ReplicaPartition
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ControllerCrash:
		return "controller-crash"
	case SatcomOutage:
		return "satcom-outage"
	case GatewayLoss:
		return "gateway-loss"
	case ManetPartition:
		return "manet-partition"
	case AgentReboot:
		return "agent-reboot"
	case TelemetryStale:
		return "telemetry-stale"
	case SolverOutage:
		return "solver-outage"
	case PartialPartition:
		return "partial-partition"
	case ByzantineTelemetry:
		return "byzantine-telemetry"
	case ControllerFailover:
		return "controller-failover"
	case ControllerPartition:
		return "controller-partition"
	case LeaseFlap:
		return "lease-flap"
	case ReplicaPartition:
		return "replica-partition"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds lists every injectable fault kind (grammar enumeration).
func Kinds() []Kind {
	return []Kind{
		ControllerCrash, SatcomOutage, GatewayLoss, ManetPartition,
		AgentReboot, TelemetryStale, SolverOutage,
		PartialPartition, ByzantineTelemetry,
		ControllerFailover, ControllerPartition,
		LeaseFlap, ReplicaPartition,
	}
}

// ParseKind inverts Kind.String for script (de)serialization.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown fault kind %q", s)
}

// SplitDirection parses a PartialPartition target "a>b" into its
// (from, to) direction: messages from → to are the ones lost.
func SplitDirection(target string) (from, to string, ok bool) {
	i := strings.IndexByte(target, '>')
	if i <= 0 || i == len(target)-1 {
		return "", "", false
	}
	return strings.TrimSpace(target[:i]), strings.TrimSpace(target[i+1:]), true
}

// Fault is one scheduled fault window.
type Fault struct {
	Kind Kind
	// Target names what the fault hits; interpretation is per Kind.
	Target string
	// At is the absolute sim time the fault starts (seconds).
	At float64
	// Duration is the fault window length; faults with zero duration
	// are impulses (AgentReboot always is).
	Duration float64
}

// Scenario is a named, ordered fault script.
type Scenario struct {
	Name   string
	Faults []Fault
}

// Standard is the canonical regression script the chaosavail figure
// replays: a controller crash at T+2h for 10 minutes and one satcom
// provider out for an hour, plus one fault per remaining class so
// every degraded mode is exercised in a single run.
func Standard() Scenario {
	return Scenario{
		Name: "standard",
		Faults: []Fault{
			{Kind: ControllerCrash, At: 2 * 3600, Duration: 600},
			{Kind: SatcomOutage, Target: "leo", At: 4 * 3600, Duration: 3600},
			{Kind: TelemetryStale, Target: "gauges", At: 5.5 * 3600, Duration: 3600},
			{Kind: SolverOutage, At: 7 * 3600, Duration: 900},
			{Kind: GatewayLoss, Target: "gs-kisumu", At: 8 * 3600, Duration: 1800},
		},
	}
}

// ErrNoNode marks a fault whose target names a node the fleet does not
// hold.
var ErrNoNode = errors.New("no node named")

// CheckNodes returns an error, one line naming the fault's index, kind
// and target, for the first fault whose target names a node known
// rejects (wrapping ErrNoNode). Node-naming faults are manet-partition (a comma-separated
// list), partial-partition ("a>b"), agent-reboot,
// byzantine-telemetry and gateway-loss; a partial-partition target
// that is not "a>b" is rejected too.
func (s Scenario) CheckNodes(known func(node string) bool) error {
	for i, f := range s.Faults {
		var nodes []string
		switch f.Kind {
		case ManetPartition:
			nodes = splitTargets(f.Target)
		case PartialPartition:
			from, to, ok := SplitDirection(f.Target)
			if !ok {
				return fmt.Errorf("fault %d (%s %q): target is not from>to", i, f.Kind, f.Target)
			}
			nodes = []string{from, to}
		case AgentReboot, ByzantineTelemetry, GatewayLoss:
			nodes = []string{f.Target}
		}
		for _, n := range nodes {
			if !known(n) {
				return fmt.Errorf("fault %d (%s %q): %w %q", i, f.Kind, f.Target, ErrNoNode, n)
			}
		}
	}
	return nil
}

// Hooks are the embedding system's fault actuators. A nil hook makes
// its fault kind a no-op (logged but inert), so partial wirings are
// usable in unit tests.
type Hooks struct {
	// ControllerCrash / ControllerRestart bracket a crash window.
	ControllerCrash, ControllerRestart func()
	// SatcomOutage starts (down=true) or ends a provider outage.
	SatcomOutage func(provider string, down bool)
	// GatewayLoss starts or ends a ground-station outage.
	GatewayLoss func(gs string, down bool)
	// Partition isolates (or rejoins) one node from the mesh.
	Partition func(node string, isolated bool)
	// AgentReboot reboots one node's agent with config wipe.
	AgentReboot func(node string)
	// TelemetryStale freezes (or resumes) weather telemetry.
	TelemetryStale func(stale bool)
	// SolverOutage starts or ends a solver brown-out.
	SolverOutage func(down bool)
	// PartialPartition blocks (or restores) one direction of the mesh:
	// messages from → to are lost while blocked.
	PartialPartition func(from, to string, blocked bool)
	// Byzantine starts (or ends) a node's byzantine-telemetry window:
	// while active the node reports spoofed positions and margins.
	Byzantine func(node string, active bool)
	// ControllerFailover / ControllerRejoin bracket a primary-only
	// death: the standby replica survives (and should promote); at
	// window end the failed replica returns as the new warm standby.
	ControllerFailover, ControllerRejoin func()
	// ControllerPartition isolates (or heals) the acting primary from
	// the lease service and replication stream while its process stays
	// live.
	ControllerPartition func(isolated bool)
	// LeaseFlap starts (active=true) or ends an unreliable-lease-cell
	// window: while active every Acquire/Renew against the lease
	// service is dropped.
	LeaseFlap func(active bool)
	// ReplicaPartition deafens (deaf=true) or heals the command path
	// of one controller replica: commands it dispatches are lost.
	ReplicaPartition func(replica string, deaf bool)
}

// Event records one injected transition for post-hoc analysis.
type Event struct {
	At    float64
	Fault Fault
	// Phase is "start" or "end".
	Phase string
}

// Injector schedules a scenario's faults on the engine.
type Injector struct {
	eng   *sim.Engine
	hooks Hooks
	// Events is the injection log in fire order.
	Events []Event
	// Scenario is what was scheduled.
	Scenario Scenario
}

// NewInjector creates an injector over the engine and hooks.
func NewInjector(eng *sim.Engine, hooks Hooks) *Injector {
	return &Injector{eng: eng, hooks: hooks}
}

// Schedule arms every fault in the scenario. Faults sort by start
// time (then declaration order) so scheduling order never depends on
// script layout.
func (in *Injector) Schedule(s Scenario) {
	in.Scenario = s
	faults := append([]Fault(nil), s.Faults...)
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].At < faults[j].At })
	for _, f := range faults {
		f := f
		in.eng.At(f.At, func() { in.start(f) })
		if f.Duration > 0 && f.Kind != AgentReboot {
			in.eng.At(f.At+f.Duration, func() { in.end(f) })
		}
	}
}

func (in *Injector) start(f Fault) {
	in.Events = append(in.Events, Event{At: in.eng.Now(), Fault: f, Phase: "start"})
	switch f.Kind {
	case ControllerCrash:
		if in.hooks.ControllerCrash != nil {
			in.hooks.ControllerCrash()
		}
	case SatcomOutage:
		if in.hooks.SatcomOutage != nil {
			in.hooks.SatcomOutage(f.Target, true)
		}
	case GatewayLoss:
		if in.hooks.GatewayLoss != nil {
			in.hooks.GatewayLoss(f.Target, true)
		}
	case ManetPartition:
		if in.hooks.Partition != nil {
			for _, n := range splitTargets(f.Target) {
				in.hooks.Partition(n, true)
			}
		}
	case AgentReboot:
		if in.hooks.AgentReboot != nil {
			in.hooks.AgentReboot(f.Target)
		}
	case TelemetryStale:
		if in.hooks.TelemetryStale != nil {
			in.hooks.TelemetryStale(true)
		}
	case SolverOutage:
		if in.hooks.SolverOutage != nil {
			in.hooks.SolverOutage(true)
		}
	case PartialPartition:
		if in.hooks.PartialPartition != nil {
			if from, to, ok := SplitDirection(f.Target); ok {
				in.hooks.PartialPartition(from, to, true)
			}
		}
	case ByzantineTelemetry:
		if in.hooks.Byzantine != nil {
			in.hooks.Byzantine(f.Target, true)
		}
	case ControllerFailover:
		if in.hooks.ControllerFailover != nil {
			in.hooks.ControllerFailover()
		}
	case ControllerPartition:
		if in.hooks.ControllerPartition != nil {
			in.hooks.ControllerPartition(true)
		}
	case LeaseFlap:
		if in.hooks.LeaseFlap != nil {
			in.hooks.LeaseFlap(true)
		}
	case ReplicaPartition:
		if in.hooks.ReplicaPartition != nil {
			in.hooks.ReplicaPartition(f.Target, true)
		}
	}
}

func (in *Injector) end(f Fault) {
	in.Events = append(in.Events, Event{At: in.eng.Now(), Fault: f, Phase: "end"})
	switch f.Kind {
	case ControllerCrash:
		if in.hooks.ControllerRestart != nil {
			in.hooks.ControllerRestart()
		}
	case SatcomOutage:
		if in.hooks.SatcomOutage != nil {
			in.hooks.SatcomOutage(f.Target, false)
		}
	case GatewayLoss:
		if in.hooks.GatewayLoss != nil {
			in.hooks.GatewayLoss(f.Target, false)
		}
	case ManetPartition:
		if in.hooks.Partition != nil {
			for _, n := range splitTargets(f.Target) {
				in.hooks.Partition(n, false)
			}
		}
	case TelemetryStale:
		if in.hooks.TelemetryStale != nil {
			in.hooks.TelemetryStale(false)
		}
	case SolverOutage:
		if in.hooks.SolverOutage != nil {
			in.hooks.SolverOutage(false)
		}
	case PartialPartition:
		if in.hooks.PartialPartition != nil {
			if from, to, ok := SplitDirection(f.Target); ok {
				in.hooks.PartialPartition(from, to, false)
			}
		}
	case ByzantineTelemetry:
		if in.hooks.Byzantine != nil {
			in.hooks.Byzantine(f.Target, false)
		}
	case ControllerFailover:
		if in.hooks.ControllerRejoin != nil {
			in.hooks.ControllerRejoin()
		}
	case ControllerPartition:
		if in.hooks.ControllerPartition != nil {
			in.hooks.ControllerPartition(false)
		}
	case LeaseFlap:
		if in.hooks.LeaseFlap != nil {
			in.hooks.LeaseFlap(false)
		}
	case ReplicaPartition:
		if in.hooks.ReplicaPartition != nil {
			in.hooks.ReplicaPartition(f.Target, false)
		}
	}
}

// splitTargets parses a comma-separated target list.
func splitTargets(t string) []string {
	var out []string
	for _, s := range strings.Split(t, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}
