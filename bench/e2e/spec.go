package main

import (
	"math"
	"math/rand"

	"minkowski/internal/chaos"
	"minkowski/internal/chaos/search"
	"minkowski/internal/core"
)

// spec is one workload: the inputs a unit of work is generated from.
// The controller only ever sees the generated core.Config / fault
// script, never the workload name. Sim-hours and world counts are
// fixed here and are the same on every commit, so two commits always
// run the same work.
type spec struct {
	name, why string
	// simHours is the simulated span of one controller run.
	simHours float64
	// worlds is how many worlds one nominalSeconds window runs, each
	// untracedReps times (sized on the 2-core sandbox at the commit that
	// added the benchmark); -seconds scales it.
	worlds int
	// config generates a fleet workload's scenario for a world seed
	// (nil for the chaos workload).
	config func(worldSeed int64) core.Config
	// scale > 0 marks the chaos workload: a world is a fault script of
	// the blind grammar at this fleet scale, and a run of it is a
	// chaos-search trial (search.Run).
	scale int
}

const nominalSeconds = 20

func (s spec) chaos() bool { return s.scale > 0 }

// worldCount is how many worlds a window of the given length runs.
func (s spec) worldCount(seconds float64) int {
	n := int(math.Round(float64(s.worlds) * seconds / nominalSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// canonical is the shape every EXPERIMENTS.md figure is made of
// (experiments.baseScenario): DefaultConfig, 3 ground stations, diurnal
// power on, 120 s solve cadence, 09:00 start.
func canonical(worldSeed int64, fleet int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = worldSeed
	cfg.FleetSize = fleet
	return cfg
}

var workloads = []spec{
	{
		name:     "fleet-day",
		why:      "canonical 21-balloon run over one diurnal cycle: substrate-bound (manet/radio/cdpi), link churn from night power-down and morning re-bootstrap",
		simHours: 24,
		worlds:   1,
		config:   func(ws int64) core.Config { return canonical(ws, 21) },
	},
	{
		name:     "fleet-56",
		why:      "same shape at 56 balloons: shifts the work to the O(N^2) layers (linkeval, solver, solve cycle) and is the only workload using both cores",
		simHours: 4,
		worlds:   1,
		config:   func(ws int64) core.Config { return canonical(ws, 56) },
	},
	{
		name:     "churn-sample",
		why:      "Fig. 4 shape: a lead-0 candidate graph every minute interleaved with the lead-180 solve graph on the same evaluator and cache, power cycle off",
		simHours: 6,
		worlds:   1,
		config: func(ws int64) core.Config {
			cfg := canonical(ws, 25)
			cfg.ChurnSampling = true
			cfg.DisablePower = true
			return cfg
		},
	},
	{
		name:     "chaos-trials",
		why:      "blind chaos-search trials: the same layers under faults (replicated controller, crashes, satcom outages, partitions) plus the invariant probes",
		simHours: 3,
		worlds:   4,
		scale:    2,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// world is one generated controller scenario: a config, an optional
// fault script (whose Scenario is installed on the controller), and how
// long to simulate it.
type world struct {
	cfg    core.Config
	script *search.Script
	hours  float64
}

// generate makes world u of a window. The worlds — fleet geometry,
// winds, storms and, for the chaos workload, the fault schedule:
// everything core.Config.Seed and the script grammar draw — are fixed,
// world u always being world seed u+1, because they cannot be redrawn
// inside the contract's limits: one-world runs of world seeds 1 to 10
// differ (standard deviation over mean) by 8 to 17 % in rtf, 15 to 57 %
// in avail_control and 4 to 12 % in allocation, any perturbation of a
// world moves it to another branch of the same chaos, and a window has
// time for one to four worlds while no bound may exceed 25 % (sizing in
// bench/README.md). The run seed therefore draws the one input that
// leaves a world's trajectory alone: where each run stops, up to 2 %
// short of the nominal horizon, on a solve-interval boundary.
func (s spec) generate(seed int64, u int) world {
	worldSeed := int64(u) + 1
	var w world
	if s.chaos() {
		sc := search.GenerateKinds(rand.New(rand.NewSource(worldSeed)), worldSeed, s.scale, s.simHours, chaos.Kinds())
		w = world{cfg: chaosConfig(sc), script: &sc}
	} else {
		w = world{cfg: s.config(worldSeed)}
	}
	cut := 0.02 * rand.New(rand.NewSource(seed*7919+int64(u))).Float64()
	step := w.cfg.SolveIntervalS / 3600
	w.hours = math.Ceil(s.simHours*(1-cut)/step) * step
	if w.script != nil {
		w.script.Hours = w.hours
	}
	return w
}

// build wires the world's controller: this is the set-up that setup_s
// times.
func (w world) build() (*core.Controller, error) {
	c := core.New(w.cfg)
	if w.script != nil {
		scn, err := w.script.Scenario()
		if err != nil {
			return nil, err
		}
		c.InstallChaos(scn)
	}
	return c, nil
}

// chaosConfig is the scenario search.Run builds for a script under the
// default options. search.config is private, so this is a copy; every
// window checks it against the original as far as a verdict shows
// (measureUntraced).
func chaosConfig(sc search.Script) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = sc.Seed
	cfg.FleetSize = sc.FleetSize()
	cfg.SolveIntervalS = 60
	cfg.AgentConnCheckS = 5
	cfg.DisablePower = true
	cfg.ReplicationEnabled = true
	cfg.DeliveryProbeS = 60
	return cfg
}

// metricDef is one named metric. The tables below are the single
// source of names, units and bounds in code; BENCHMARK.json carries the
// same set (TestNamesMatchBenchmarkJSON).
type metricDef struct {
	name, unit string
	higher     bool    // better direction
	bound      float64 // end-to-end only: share of the parent's median
	exact      bool    // per-layer only: a simulated count, repeats exactly
}

// A bound is at least three times the spread (inter-quartile range over
// median) ten invocations of this commit showed on any workload in a
// quiet half hour: 4.2 % for the normalised timings, 1.3 % for
// availability, 0.4 % for allocation, 3.7 % for the live heap. In a
// noisy half hour the normalised timings spread 7 to 15 % (raw: 9 to
// 20 %) and their medians sat 5 to 14 % lower, so rtf and
// cpu_s_per_sim_hour carry the contract's largest bound; setup_s does by
// the contract's advice.
var endToEnd = []metricDef{
	{name: "rtf", unit: "sim_s/s", higher: true, bound: 0.25},
	{name: "cpu_s_per_sim_hour", unit: "s/sim_h", bound: 0.25},
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "alloc_mb_per_sim_hour", unit: "MB/sim_h", bound: 0.03},
	{name: "mallocs_per_sim_hour", unit: "1/sim_h", bound: 0.03},
	{name: "live_heap_mb", unit: "MB", bound: 0.12},
	{name: "avail_link", unit: "ratio", higher: true, bound: 0.04},
	{name: "avail_control", unit: "ratio", higher: true, bound: 0.04},
	{name: "avail_data", unit: "ratio", higher: true, bound: 0.04},
}

var perLayer = []metricDef{
	{name: "sim.events_per_sim_hour", unit: "1/sim_h", exact: true},
	{name: "sim.event_p50_us", unit: "us"},
	{name: "sim.event_p99_us", unit: "us"},
	{name: "sim.pending_max", unit: "count", exact: true},

	{name: "core.solve_cycle_p50_ms", unit: "ms"},
	{name: "core.solve_cycle_p95_ms", unit: "ms"},
	{name: "core.solve_cycle_share", unit: "ratio"},
	{name: "core.solve_runs_per_sim_hour", unit: "1/sim_h", exact: true},
	{name: "core.digests_distinct", unit: "count"},

	{name: "radio.neighbors_ns", unit: "ns"},
	{name: "radio.link_between_ns", unit: "ns"},
	{name: "radio.up_links_ns", unit: "ns"},
	{name: "radio.up_links_mean", unit: "count", higher: true, exact: true},
	{name: "radio.link_lifetimes_per_sim_hour", unit: "1/sim_h", exact: true},

	{name: "weather.truth_path_atten_ns", unit: "ns"},
	{name: "weather.est_path_atten_ns", unit: "ns"},
	{name: "weather.cells_mean", unit: "count", exact: true},

	{name: "manet.path_from_ns", unit: "ns"},
	{name: "manet.next_hop_ns", unit: "ns"},
	{name: "manet.recompute_us", unit: "us"},
	{name: "manet.path_hops_mean", unit: "count", exact: true},
	{name: "manet.recomputes_per_sim_hour", unit: "1/sim_h", exact: true},

	{name: "cdpi.path_up_ns", unit: "ns"},
	{name: "cdpi.connected_ns", unit: "ns"},
	{name: "cdpi.dispatches_per_sim_hour", unit: "1/sim_h", exact: true},
	{name: "cdpi.enact_ok_per_sim_hour", unit: "1/sim_h", higher: true, exact: true},
	{name: "cdpi.enact_failed_share", unit: "ratio", exact: true},

	{name: "satcom.sent_per_sim_hour", unit: "1/sim_h", exact: true},
	{name: "satcom.drop_share", unit: "ratio", exact: true},
	{name: "satcom.requeued_per_sim_hour", unit: "1/sim_h", exact: true},

	{name: "linkeval.graph_delta_ms", unit: "ms"},
	{name: "linkeval.graph_cold_ms", unit: "ms"},
	{name: "linkeval.candidates_mean", unit: "count", exact: true},
	{name: "linkeval.pairs_per_sim_hour", unit: "1/sim_h", exact: true},
	{name: "linkeval.reevals_per_sim_hour", unit: "1/sim_h", exact: true},
	{name: "linkeval.cache_hit_share", unit: "ratio", higher: true, exact: true},
	{name: "linkeval.pruned_share", unit: "ratio", higher: true, exact: true},

	{name: "solver.solve_cold_ms", unit: "ms"},
	{name: "solver.solve_warm_ms", unit: "ms"},
	{name: "solver.warm_reuse_share", unit: "ratio", higher: true, exact: true},
	{name: "solver.plan_links_mean", unit: "count", exact: true},

	{name: "dataplane.operable_ns", unit: "ns"},
	{name: "flight.predict_trajectory_us", unit: "us"},
	{name: "platform.transceivers_ns", unit: "ns"},

	{name: "obs.snapshot_us", unit: "us"},
	{name: "obs.snapshot_bytes", unit: "B", exact: true},

	{name: "runtime.gc_cycles_per_sim_hour", unit: "1/sim_h"},
	{name: "runtime.gc_pause_ms_per_sim_hour", unit: "ms/sim_h"},
	{name: "runtime.gc_cpu_frac", unit: "ratio"},

	{name: "chaos.trial_p50_s", unit: "s"},
	{name: "chaos.trial_max_s", unit: "s"},
	{name: "chaos.faults_per_trial", unit: "count", exact: true},
	{name: "chaos.promotions_total", unit: "count", exact: true},
	{name: "chaos.crashes_total", unit: "count", exact: true},

	{name: "trace.overhead_frac", unit: "ratio"},
}
