package search

import (
	"fmt"
	"math/rand"

	"minkowski/internal/chaos"
)

// Grammar bounds for generated faults.
const (
	genMinAtS     = 900  // let the network bootstrap first
	genTailS      = 900  // leave room to observe recovery before the run ends
	genMinDurS    = 120  // fault windows shorter than a solve cycle teach little
	genMaxDurS    = 1500 // bounded so quarantine drift stays under the sanity bound
	genMaxPerKind = 2
)

// balloonID returns the deterministic initial-fleet balloon names
// (flight launches number from hbal-001).
func balloonID(i int) string { return fmt.Sprintf("hbal-%03d", i+1) }

// gatewayIDs are the DefaultConfig ground stations.
func gatewayIDs() []string { return []string{"gs-nairobi", "gs-kisumu", "gs-nakuru"} }

// replicaIDs are the replicated control plane's process names.
func replicaIDs() []string { return []string{"ctl-a", "ctl-b"} }

// GenerateKinds draws a random fault script from the seeded grammar:
// 2 to 4+scale faults over the run of the given kinds (chaos.Kinds()
// for every kind; chaosearch -kinds narrows it, which lets a nightly
// campaign hammer just the controller-replication faults), targets
// drawn from the deterministic initial fleet. The rng fully
// determines the output.
func GenerateKinds(rng *rand.Rand, seed int64, scale int, hours float64, kinds []chaos.Kind) Script {
	s := Script{
		Name:  fmt.Sprintf("gen-%d-s%d", seed, scale),
		Seed:  seed,
		Scale: scale,
		Hours: hours,
	}
	fleet := 6 + 5*scale
	span := hours*3600 - genMinAtS - genTailS
	if span < 600 {
		span = 600
	}
	n := 2 + rng.Intn(3+scale)
	// A narrow kind set caps how many faults can exist at all.
	if max := len(kinds) * genMaxPerKind; n > max {
		n = max
	}
	perKind := map[chaos.Kind]int{}
	for len(s.Faults) < n {
		k := kinds[rng.Intn(len(kinds))]
		if perKind[k] >= genMaxPerKind {
			continue
		}
		perKind[k]++
		s.Faults = append(s.Faults, genFault(rng, k, fleet, span))
	}
	return s
}

// genFault draws one complete fault of kind k from the grammar. span
// is the start-time window above genMinAtS. The rng draw order (At,
// base duration, then per-kind redraws) is part of the grammar's
// determinism contract.
func genFault(rng *rand.Rand, k chaos.Kind, fleet int, span float64) ScriptFault {
	at := genMinAtS + rng.Float64()*span
	dur := genMinDurS + rng.Float64()*(genMaxDurS-genMinDurS)
	f := ScriptFault{Kind: k.String(), At: at, Duration: dur}
	switch k {
	case chaos.ControllerCrash:
		f.Duration = genMinDurS + rng.Float64()*(900-genMinDurS)
	case chaos.ControllerFailover, chaos.ControllerPartition:
		// Long enough for the 30 s lease to lapse and a standby to
		// promote while the fault still holds (short windows heal
		// before deposition, which is legitimate but teaches
		// nothing).
		f.Duration = genMinDurS + rng.Float64()*(900-genMinDurS)
	case chaos.LeaseFlap:
		// Same shape: the interesting flaps outlast the 30 s lease TTL
		// so leadership actually lapses with the primary healthy.
		f.Duration = genMinDurS + rng.Float64()*(900-genMinDurS)
	case chaos.ReplicaPartition:
		f.Target = replicaIDs()[rng.Intn(len(replicaIDs()))]
		f.Duration = genMinDurS + rng.Float64()*(900-genMinDurS)
	case chaos.SatcomOutage:
		f.Target = []string{"leo", "geo", "all"}[rng.Intn(3)]
	case chaos.GatewayLoss:
		gws := gatewayIDs()
		f.Target = gws[rng.Intn(len(gws))]
	case chaos.ManetPartition:
		f.Target = balloonID(rng.Intn(fleet))
	case chaos.AgentReboot:
		f.Target = balloonID(rng.Intn(fleet))
		f.Duration = 0 // impulse
	case chaos.TelemetryStale, chaos.SolverOutage:
		// no target
	case chaos.PartialPartition:
		// A directed edge between two distinct mesh members; a
		// balloon → gateway direction is the interesting case (it
		// silences the node's uplink), so bias toward it.
		gws := gatewayIDs()
		from := balloonID(rng.Intn(fleet))
		var to string
		if rng.Float64() < 0.5 {
			to = gws[rng.Intn(len(gws))]
		} else {
			to = balloonID(rng.Intn(fleet))
			for to == from {
				to = balloonID(rng.Intn(fleet))
			}
		}
		f.Target = from + ">" + to
	case chaos.ByzantineTelemetry:
		f.Target = balloonID(rng.Intn(fleet))
		// Always a window: a byzantine fault with no end would
		// never lift, and the grammar must generate revertible
		// scripts.
		if f.Duration <= 0 {
			f.Duration = genMinDurS
		}
	}
	return f
}
