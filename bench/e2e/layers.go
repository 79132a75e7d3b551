package main

import (
	"minkowski/internal/chaos/search"
	"minkowski/internal/core"
	"minkowski/internal/obs"
)

// probeMetric reads a per-call median from a probe's spans.
type probeMetric struct {
	metric, span string
	perUnitNs    float64 // ns per reported unit (1 ns, 1e3 us, 1e6 ms)
}

var probeMetrics = []probeMetric{
	{"radio.neighbors_ns", "radio.neighbors", 1},
	{"radio.link_between_ns", "radio.link_between", 1},
	{"radio.up_links_ns", "radio.up_links", 1},
	{"weather.truth_path_atten_ns", "weather.truth_path_atten", 1},
	{"weather.est_path_atten_ns", "weather.est_path_atten", 1},
	{"manet.path_from_ns", "manet.path_from", 1},
	{"manet.next_hop_ns", "manet.next_hop", 1},
	{"manet.recompute_us", "manet.recompute", 1e3},
	{"cdpi.path_up_ns", "cdpi.path_up", 1},
	{"cdpi.connected_ns", "cdpi.connected", 1},
	{"linkeval.graph_delta_ms", "linkeval.graph_delta", 1e6},
	{"linkeval.graph_cold_ms", "linkeval.graph_cold", 1e6},
	{"solver.solve_cold_ms", "solver.solve_cold", 1e6},
	{"solver.solve_warm_ms", "solver.solve_warm", 1e6},
	{"dataplane.operable_ns", "dataplane.operable", 1},
	{"flight.predict_trajectory_us", "flight.predict_trajectory", 1e3},
	{"platform.transceivers_ns", "platform.transceivers", 1},
	{"obs.snapshot_us", "obs.snapshot", 1e3},
}

// ratio is a/b, or 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// registryValue reads one metric of an obs snapshot (a counter's count
// or a gauge's value; 0 when the run never registered it).
func registryValue(s obs.Snapshot, name string) float64 {
	for _, m := range s.Metrics {
		if m.Name == name {
			if m.Kind == "counter" {
				return float64(m.Count)
			}
			return m.Value
		}
	}
	return 0
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	tr     *tracer
	traced tracedRun
	unit   unit // the traced run's unit
	c      *core.Controller
	// untracedWallS is the same world's untraced wall time; base is the
	// cost of the workload's untraced timed work over baseSimS.
	untracedWallS float64
	base          cost
	baseSimS      float64
	digests       int
	trialRun      int
	trials        []search.Result
}

func perLayerMetrics(in layerInputs) map[string]float64 {
	m := map[string]float64{}
	tr, t, c, p := in.tr, in.traced, in.c, in.traced.probes
	run := t.run
	h := in.unit.simS / 3600
	reg := func(name string) float64 { return registryValue(t.snapshot, name) }

	m["sim.events_per_sim_hour"] = float64(in.unit.processed-t.harnessEvents) / h
	m["sim.event_p50_us"] = quantile(t.eventNs, 0.5) / 1e3
	m["sim.event_p99_us"] = quantile(t.eventNs, 0.99) / 1e3
	m["sim.pending_max"] = float64(p.pendingMax)

	// The step loop alone: probe time is the harness's, not the run's.
	loopS := tr.total(run, "run") - tr.total(run, "checkpoint")
	cycles := tr.perCall(run, "core.solve_cycle")
	m["core.solve_cycle_p50_ms"] = quantile(cycles, 0.5) / 1e6
	m["core.solve_cycle_p95_ms"] = quantile(cycles, 0.95) / 1e6
	m["core.solve_cycle_share"] = ratio(tr.total(run, "core.solve_cycle"), loopS)
	m["core.solve_runs_per_sim_hour"] = float64(c.SolveRuns) / h
	m["core.digests_distinct"] = float64(in.digests)
	m["trace.overhead_frac"] = ratio(loopS, in.untracedWallS) - 1

	for _, pm := range probeMetrics {
		m[pm.metric] = quantile(tr.perCall(run, pm.span), 0.5) / pm.perUnitNs
	}
	n := float64(p.checkpoints)
	m["radio.up_links_mean"] = ratio(float64(p.upLinks), n)
	m["weather.cells_mean"] = ratio(float64(p.cells), n)
	m["manet.path_hops_mean"] = ratio(float64(p.hops), float64(p.paths))
	m["linkeval.candidates_mean"] = ratio(float64(p.candidates), n)
	m["solver.plan_links_mean"] = ratio(float64(p.planLinks), n)

	m["radio.link_lifetimes_per_sim_hour"] = float64(len(c.Fabric.History())) / h
	m["manet.recomputes_per_sim_hour"] = float64(c.Router.Recomputes) / h
	m["cdpi.dispatches_per_sim_hour"] = reg("cdpi.dispatches") / h
	m["cdpi.enact_ok_per_sim_hour"] = reg("enact.ok") / h
	m["cdpi.enact_failed_share"] = ratio(reg("enact.failed"), reg("enact.ok")+reg("enact.failed"))
	m["satcom.sent_per_sim_hour"] = reg("satcom.sent") / h
	m["satcom.drop_share"] = ratio(reg("satcom.dropped"), reg("satcom.sent")+reg("satcom.dropped"))
	m["satcom.requeued_per_sim_hour"] = reg("satcom.requeued") / h
	m["linkeval.pairs_per_sim_hour"] = reg("eval.pairs_enumerated") / h
	m["linkeval.reevals_per_sim_hour"] = reg("eval.reevals") / h
	m["linkeval.cache_hit_share"] = ratio(reg("eval.cache_hits"), reg("eval.cache_hits")+reg("eval.reevals"))
	m["linkeval.pruned_share"] = ratio(reg("eval.pairs_pruned"), reg("eval.pairs_pruned")+reg("eval.pairs_enumerated"))
	m["solver.warm_reuse_share"] = ratio(reg("warm.paths_reused"), reg("warm.paths_reused")+reg("warm.paths_recomputed"))
	if b, err := t.snapshot.Encode(); err == nil {
		m["obs.snapshot_bytes"] = float64(len(b))
	}

	baseH := in.baseSimS / 3600
	m["runtime.gc_cycles_per_sim_hour"] = in.base.gcs / baseH
	m["runtime.gc_pause_ms_per_sim_hour"] = in.base.gcPauseMs / baseH
	m["runtime.gc_cpu_frac"] = ratio(in.base.gcCPUS, in.base.cpuS)

	// Chaos verdicts; all 0 on the fault-free workloads.
	trialS := tr.perCall(in.trialRun, "chaos.trial")
	m["chaos.trial_p50_s"] = quantile(trialS, 0.5) / 1e9
	m["chaos.trial_max_s"] = quantile(trialS, 1) / 1e9
	faults, promotions, crashes := 0, 0, 0
	for _, r := range in.trials {
		faults += len(r.Script.Faults)
		promotions += r.Promotions
		crashes += r.Crashes
	}
	m["chaos.faults_per_trial"] = ratio(float64(faults), float64(len(in.trials)))
	m["chaos.promotions_total"] = float64(promotions)
	m["chaos.crashes_total"] = float64(crashes)
	return m
}

// tracedReps is how many untraced runs of the world precede its traced
// run: the determinism evidence, and the wall time the traced step loop
// is compared with.
const tracedReps = 2

// runTracedUnit measures a workload's per-layer metrics on its first
// world: untraced repeats, then the traced run. Its wall time never
// feeds an end-to-end metric.
func runTracedUnit(s spec, seed int64, seconds float64, tr *tracer) result {
	res := result{Workload: s.name, Seed: seed, Trace: true, Worlds: 1}
	in := layerInputs{tr: tr, trialRun: -1}

	if s.chaos() {
		// The window's trials, one span each: the verdicts behind the
		// chaos.* metrics and the untraced cost behind runtime.*.
		tr.run++
		in.trialRun = tr.run
		tr.begin("chaos.trials")
		n := s.worldCount(seconds)
		for u := 0; u < n; u++ {
			tr.begin("chaos.trial")
			tu, verdict := runTrial(s.generate(seed, u))
			tr.end(1)
			res.absorb(measured{unit: tu, digests: []uint64{tu.digest}})
			in.base.add(tu.cost)
			in.baseSimS += tu.simS
			in.trials = append(in.trials, verdict)
		}
		tr.end(n)
	}

	// The traced run drives a harness-built controller, so under faults
	// too its untraced twin is a plain run, not a search.Run trial.
	w := s.generate(seed, 0)
	plain := measureWorld(w, tracedReps, runPlain)
	plain.checkEvents()
	in.untracedWallS = plain.cost.wallS
	in.digests = distinct(plain.digests)
	if !s.chaos() {
		in.base, in.baseSimS = plain.cost, plain.simS
	}
	res.absorb(plain)

	tu, c, traced := runTraced(tr, w)
	if c != nil {
		own := tu.processed - traced.harnessEvents
		tu.check(own == plain.processed, "probes perturbed the run: %d controller events traced, %d untraced", own, plain.processed)
		same := true
		for i := range tu.avail {
			same = same && sameBits(tu.avail[i], plain.avail[i])
		}
		tu.check(same, "probes perturbed the run: availability %v traced, %v untraced", tu.avail, plain.avail)
		in.unit, in.c, in.traced = tu, c, traced
		res.Metrics = perLayerMetrics(in)
	}
	// The traced digest covers the harness's own events: not listed.
	res.absorb(measured{unit: tu})
	return res
}
