package main

import (
	"time"

	"minkowski/internal/cdpi"
	"minkowski/internal/core"
	"minkowski/internal/linkeval"
	"minkowski/internal/manet"
	"minkowski/internal/obs"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/solver"
	"minkowski/internal/weather"
)

// span is one timed interval recorded from the harness side of a
// layer boundary. Count is how many calls into the layer it covers.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count"`
}

// tracer keeps spans in memory; main writes them out at exit.
type tracer struct {
	epoch time.Time
	run   int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

func (t *tracer) begin(name string) {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Run: t.run, Name: name, Start: time.Since(t.epoch).Nanoseconds()})
	t.open = append(t.open, id)
}

func (t *tracer) end(count int) {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	t.spans[id].Count = count
}

// add records an already-measured interval under the open span.
func (t *tracer) add(name string, start, end time.Time) {
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: t.parent(), Run: t.run, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Count: 1,
	})
}

// perCall returns, for every span of a name in a run that covered at
// least one call, its duration per call in nanoseconds.
func (t *tracer) perCall(run int, name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Run == run && s.Name == name && s.Count > 0 {
			out = append(out, float64(s.End-s.Start)/float64(s.Count))
		}
	}
	return out
}

// total sums the durations of a name's spans in a run, in seconds.
func (t *tracer) total(run int, name string) float64 {
	ns := int64(0)
	for _, s := range t.spans {
		if s.Run == run && s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// probes calls each layer's public functions on a live controller's
// state at a checkpoint. Everything here only reads the controller:
// the evaluator, solver, router and in-band plane are probed on
// harness-owned shadows, because the controller's own instances carry
// state a call would advance (evaluation cache and delta baseline,
// warm paths, and manet.Fast.NextHop's lazy table rebuild — probing it
// directly would move a recompute the run does later).
type probes struct {
	c        *core.Controller
	balloons []*platform.Node
	gateways []string

	eval               *linkeval.Evaluator
	coldSolve, warmSol *solver.Solver
	warm               *solver.Warm
	inband             *cdpi.InBand

	// Per-checkpoint state shared between probes.
	up     []*radio.Link
	xcvrs  []*platform.Transceiver
	router *manet.Fast
	input  solver.Input

	// Exact sums behind the *_mean metrics.
	checkpoints, upLinks, cells, hops, paths, candidates, planLinks int
	pendingMax                                                      int
}

func shadowEvaluator(c *core.Controller) *linkeval.Evaluator {
	e := linkeval.New(c.Evaluator.Config(), c.Evaluator.Weather, c.Evaluator.Predict)
	e.PredictBatch = c.Evaluator.PredictBatch
	return e
}

// shadowSolver is a solver with the policy core.New derives from the
// config: that of a second controller nothing else uses.
func shadowSolver(cfg core.Config) *solver.Solver { return core.New(cfg).Solver }

func newProbes(c *core.Controller) *probes {
	p := &probes{
		c:         c,
		gateways:  c.InBand.Gateways,
		eval:      shadowEvaluator(c),
		coldSolve: shadowSolver(c.Cfg),
		warmSol:   shadowSolver(c.Cfg),
		warm:      solver.NewWarm(),
	}
	p.inband = &cdpi.InBand{
		Eng: c.Eng, Net: c.Net, Gateways: p.gateways,
		WiredOneWayS: c.InBand.WiredOneWayS, SymmetricCompat: c.InBand.SymmetricCompat,
	}
	return p
}

// probe is one named call site; fn returns how many calls it made.
type probe struct {
	name string
	fn   func(p *probes) int
}

// The order matters only where a probe prepares state for the next
// (up links, router, candidate graph); names are the span names the
// per-layer metrics are read from.
var checkpointProbes = []probe{
	{"radio.up_links", func(p *probes) int {
		p.up = p.c.Fabric.UpLinks()
		p.upLinks += len(p.up)
		return 1
	}},
	{"radio.neighbors", func(p *probes) int {
		nodes := p.c.Fleet.Nodes()
		for _, n := range nodes {
			p.c.Fabric.Neighbors(n.ID)
		}
		return len(nodes)
	}},
	{"radio.link_between", func(p *probes) int {
		for _, l := range p.up {
			a, b := l.Nodes()
			p.c.Fabric.LinkBetween(a, b)
		}
		return len(p.up)
	}},
	{"weather.truth_path_atten", func(p *probes) int {
		for _, l := range p.up {
			p.c.Wx.PathAttenuation(l.Channel.CenterGHz, l.XA.Node.Position(), l.XB.Node.Position())
		}
		p.cells += p.c.Wx.Cells()
		return len(p.up)
	}},
	{"weather.est_path_atten", func(p *probes) int {
		for _, l := range p.up {
			weather.EstimatePathAttenuation(p.c.WxModel, l.Channel.CenterGHz, l.XA.Node.Position(), l.XB.Node.Position())
		}
		return len(p.up)
	}},
	{"manet.recompute", func(p *probes) int {
		// A fresh oracle router over the live mesh: the table rebuild
		// the run pays per topology change, and a converged table the
		// path probes below can walk without touching c.Router.
		p.router = manet.NewFast(p.c.Eng, p.c.Net, p.c.Router.ConvergenceS)
		p.inband.Router = p.router
		for _, n := range p.c.Fleet.Nodes() {
			p.inband.SetPartitioned(n.ID, p.c.InBand.Partitioned(n.ID))
		}
		return 1
	}},
	{"manet.path_from", func(p *probes) int {
		for _, b := range p.balloons {
			for _, gw := range p.gateways {
				if path, ok := manet.PathFrom(p.router, b.ID, gw); ok {
					p.hops += len(path) - 1
					p.paths++
				}
			}
		}
		return len(p.balloons) * len(p.gateways)
	}},
	{"manet.next_hop", func(p *probes) int {
		for _, b := range p.balloons {
			for _, gw := range p.gateways {
				p.router.NextHop(b.ID, gw)
			}
		}
		return len(p.balloons) * len(p.gateways)
	}},
	{"cdpi.path_up", func(p *probes) int {
		for _, b := range p.balloons {
			p.inband.PathUp(b.ID)
		}
		return len(p.balloons)
	}},
	{"cdpi.connected", func(p *probes) int {
		for _, b := range p.balloons {
			p.inband.Connected(b.ID)
		}
		return len(p.balloons)
	}},
	{"dataplane.operable", func(p *probes) int {
		links := fabricLinks(p.c)
		routes := p.c.Data.Routes()
		for _, r := range routes {
			p.c.Data.Operable(r.ID, links)
		}
		return len(routes)
	}},
	{"platform.transceivers", func(p *probes) int {
		p.xcvrs = p.c.Fleet.Transceivers()
		return 1
	}},
	{"flight.predict_trajectory", func(p *probes) int {
		lead := p.c.Cfg.PredictiveLeadS
		if lead <= 0 {
			return 0
		}
		for _, b := range p.balloons {
			p.c.FMS.PredictTrajectory(b.Balloon, lead, lead)
		}
		return len(p.balloons)
	}},
	{"linkeval.graph_cold", func(p *probes) int {
		if len(p.xcvrs) == 0 {
			return 0
		}
		shadowEvaluator(p.c).CandidateGraph(p.xcvrs, p.c.Cfg.PredictiveLeadS)
		return 1
	}},
	{"linkeval.graph_delta", func(p *probes) int {
		// The persistent shadow sees production's regime: one graph per
		// solve interval over a drifting fleet, weather epoch advanced
		// in between.
		p.input = solver.Input{}
		if len(p.xcvrs) == 0 {
			return 0
		}
		p.eval.Weather = p.c.Evaluator.Weather
		p.eval.BumpWeatherEpoch()
		graph, _ := p.eval.CandidateGraphDelta(p.xcvrs, p.c.Cfg.PredictiveLeadS)
		p.candidates += len(graph)
		existing := map[radio.LinkID]bool{}
		for _, l := range p.up {
			existing[l.ID] = true
		}
		p.input = solver.Input{
			Candidates: graph, Requests: p.c.NBI.SolverRequests(),
			Existing: existing, Gateways: p.gateways,
		}
		return 1
	}},
	{"solver.solve_cold", func(p *probes) int {
		if p.input.Candidates == nil {
			return 0
		}
		p.coldSolve.Solve(p.input)
		return 1
	}},
	{"solver.solve_warm", func(p *probes) int {
		if p.input.Candidates == nil {
			return 0
		}
		plan := p.warmSol.SolveWarm(p.input, p.warm)
		p.planLinks += len(plan.Links)
		return 1
	}},
	{"obs.snapshot", func(p *probes) int {
		p.c.ObsSnapshot()
		return 1
	}},
}

// checkpoint runs the probes; pending is how many of the controller's
// own events are queued.
func (p *probes) checkpoint(tr *tracer, pending int) {
	p.checkpoints++
	p.balloons = p.balloons[:0]
	for _, n := range p.c.Fleet.Nodes() {
		if n.Kind == platform.KindBalloon {
			p.balloons = append(p.balloons, n)
		}
	}
	if pending > p.pendingMax {
		p.pendingMax = pending
	}
	tr.begin("checkpoint")
	for _, pr := range checkpointProbes {
		tr.begin(pr.name)
		tr.end(pr.fn(p))
	}
	tr.end(len(checkpointProbes))
}

// tracedRun is what a traced run of one world yields beyond its unit.
type tracedRun struct {
	run int
	// eventNs holds every controller event's duration.
	eventNs []float64
	// harnessEvents is how many engine events the harness itself
	// scheduled (checkpoints and the end-of-run sentinel), and
	// harnessQueuedMax the most of them ever queued at once.
	harnessEvents    uint64
	harnessQueuedMax int
	probes           *probes
	snapshot         obs.Snapshot
}

// runTraced drives a world's engine from the harness: it steps event
// by event, timing each and labelling the ones that ran a solve cycle,
// and at a checkpoint every solve interval runs the probes.
func runTraced(tr *tracer, w world) (unit, *core.Controller, tracedRun) {
	tr.run++
	t := tracedRun{run: tr.run}
	u, c := runWorld(w, func(c *core.Controller, until float64) {
		p := newProbes(c)
		t.probes = p
		// The engine has no peek, so the harness learns that sim time
		// reached a checkpoint from an event of its own. The event
		// re-schedules itself once at the same instant so that it runs
		// after every controller event already queued for that instant
		// (by then the run has made its own router lookups for this
		// tick), and that second event schedules the next checkpoint: at
		// most two harness events are ever queued, the end-of-run
		// sentinel being the other.
		harness, due, done := false, false, false
		queued := 0
		at := func(when float64, fn func()) {
			c.Eng.At(when, func() {
				harness = true
				queued--
				fn()
			})
			t.harnessEvents++
			if queued++; queued > t.harnessQueuedMax {
				t.harnessQueuedMax = queued
			}
		}
		var checkpointAt func(when float64)
		checkpointAt = func(when float64) {
			if when >= until {
				return
			}
			at(when, func() {
				at(when, func() {
					due = true
					checkpointAt(when + c.Cfg.SolveIntervalS)
				})
			})
		}
		at(until, func() { done = true })
		checkpointAt(c.Cfg.SolveIntervalS)

		tr.begin("run")
		for !done {
			solves := c.SolveRuns
			t0 := time.Now()
			if !c.Eng.Step() {
				break
			}
			t1 := time.Now()
			switch {
			case harness:
				harness = false
			case c.SolveRuns != solves:
				tr.add("core.solve_cycle", t0, t1)
				fallthrough
			default:
				t.eventNs = append(t.eventNs, float64(t1.Sub(t0).Nanoseconds()))
			}
			if due {
				due = false
				p.checkpoint(tr, c.Eng.Pending()-queued)
			}
		}
		// Events stamped exactly `until` that queue behind the sentinel.
		c.Run(until)
		tr.end(len(t.eventNs))
	})
	if c != nil {
		t.snapshot = c.ObsSnapshot()
	}
	return u, c, t
}
