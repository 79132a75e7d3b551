// Package obs is the deterministic observability subsystem: a metrics
// registry (named counters, gauges, fixed-bucket histograms with
// interned typed handles), a lightweight solve-cycle span tracer, and
// a bounded flight recorder the chaos harness dumps on invariant
// violations (DESIGN.md §11).
//
// The paper's §6 is explicit that operating the TS-SDN hinged on
// explainability — operators lived in solve-cycle change-logs, time
// scrubbers, and link telemetry. This package is that instrumentation
// layer for the reproduction, under one hard contract: observability
// must never perturb the simulation. Every rule below serves that
// contract.
//
//   - All timestamps come from the injected sim clock (`now`), never
//     the wall clock — a time.Now reachable from a snapshot is a
//     minkowski-vet dettaint finding.
//   - Recording happens only on the single-threaded simulation event
//     loop, never inside solver/evaluator worker goroutines, so the
//     registry needs no locks and record order is deterministic.
//   - Nothing in this package feeds back into control decisions:
//     plan fingerprints, journals, and telemetry digests are
//     byte-identical with obs fully enabled, disabled, or absent.
//   - Snapshots, span trees, and flight dumps never include
//     GOMAXPROCS- or worker-count-derived quantities, so chaosearch
//     reports embedding them stay byte-identical across -workers and
//     GOMAXPROCS.
package obs

// Config sizes one Obs instance.
type Config struct {
	// Enabled gates the tracer and the flight recorder. The metrics
	// registry is always live regardless — its counters are the
	// storage behind several controller telemetry readers, which must
	// keep counting even when tracing is off.
	Enabled bool
	// FlightCap bounds the flight-recorder ring (records). 0 keeps
	// the default (4096).
	FlightCap int
	// FlightWindowS is the flight dump's lookback in sim-seconds.
	// 0 keeps the default (120).
	FlightWindowS float64
	// CycleCap bounds retained solve-cycle span trees. 0 keeps the
	// default (64).
	CycleCap int
}

// Obs bundles the three instruments sharing one sim clock.
type Obs struct {
	Reg    *Registry
	Tracer *Tracer
	Rec    *Recorder
}

// New builds an Obs instance reading time from now (the sim engine's
// clock). With cfg.Enabled false the tracer and recorder are inert
// no-ops; the registry records either way.
func New(cfg Config, now func() float64) *Obs {
	if cfg.FlightCap <= 0 {
		cfg.FlightCap = 4096
	}
	if cfg.FlightWindowS <= 0 {
		cfg.FlightWindowS = 120
	}
	if cfg.CycleCap <= 0 {
		cfg.CycleCap = 64
	}
	rec := &Recorder{now: now, cap: cfg.FlightCap, window: cfg.FlightWindowS, enabled: cfg.Enabled}
	return &Obs{
		Reg:    NewRegistry(now),
		Tracer: &Tracer{now: now, cap: cfg.CycleCap, rec: rec, enabled: cfg.Enabled},
		Rec:    rec,
	}
}

// Enabled reports whether the tracer/recorder side is live.
func (o *Obs) Enabled() bool { return o != nil && o.Rec != nil && o.Rec.enabled }
