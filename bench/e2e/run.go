package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"minkowski/internal/chaos/search"
	"minkowski/internal/core"
	"minkowski/internal/dataplane"
	"minkowski/internal/stats"
	"minkowski/internal/telemetry"
)

// usage is a snapshot of the process's cumulative resource counters.
type usage struct {
	at      time.Time
	cpuS    float64 // user+sys, getrusage
	alloc   uint64  // bytes
	mallocs uint64
	gcs     uint32
	pauseNs uint64
	gcCPUS  float64
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUSample)
	u := usage{
		at:      time.Now(),
		cpuS:    cpuSeconds(),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPUS = gcCPUSample[0].Value.Float64()
	}
	return u
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// cost is the resources one timed section consumed.
type cost struct {
	wallS, cpuS, allocMB, mallocs, gcs, gcPauseMs, gcCPUS float64
}

func (u usage) since(b usage) cost {
	return cost{
		wallS:     u.at.Sub(b.at).Seconds(),
		cpuS:      u.cpuS - b.cpuS,
		allocMB:   float64(u.alloc-b.alloc) / (1 << 20),
		mallocs:   float64(u.mallocs - b.mallocs),
		gcs:       float64(u.gcs - b.gcs),
		gcPauseMs: float64(u.pauseNs-b.pauseNs) / 1e6,
		gcCPUS:    u.gcCPUS - b.gcCPUS,
	}
}

func (c *cost) add(o cost) {
	c.wallS += o.wallS
	c.cpuS += o.cpuS
	c.allocMB += o.allocMB
	c.mallocs += o.mallocs
	c.gcs += o.gcs
	c.gcPauseMs += o.gcPauseMs
	c.gcCPUS += o.gcCPUS
}

// least keeps, field by field, the smaller of two costs of the same
// work.
func (c *cost) least(o cost) {
	c.wallS = math.Min(c.wallS, o.wallS)
	c.cpuS = math.Min(c.cpuS, o.cpuS)
	c.allocMB = math.Min(c.allocMB, o.allocMB)
	c.mallocs = math.Min(c.mallocs, o.mallocs)
	c.gcs = math.Min(c.gcs, o.gcs)
	c.gcPauseMs = math.Min(c.gcPauseMs, o.gcPauseMs)
	c.gcCPUS = math.Min(c.gcCPUS, o.gcCPUS)
}

// unit is one run of one world and what was observed after it.
type unit struct {
	seed  int64
	simS  float64 // sim-seconds the timed section executed
	cost  cost
	avail [3]float64 // link, control, data
	// liveHeapMB is HeapAlloc after a forced GC with the finished
	// controller still referenced: the bounded-memory guard.
	liveHeapMB float64
	processed  uint64
	digest     uint64
	// ctl counts controller crashes, promotions and stand-downs: what a
	// chaos trial's verdict and a harness-built controller both expose.
	ctl      [3]int
	ops      int
	failures []string
}

func (u *unit) check(ok bool, format string, args ...interface{}) {
	u.ops++
	if !ok {
		u.failures = append(u.failures, fmt.Sprintf("world %d: ", u.seed)+fmt.Sprintf(format, args...))
	}
}

// judged folds another run's checks into this one's.
func (u *unit) judged(o unit) {
	u.ops += o.ops
	u.failures = append(u.failures, o.failures...)
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runWorld builds a world and times drive advancing it to its horizon.
// A panic inside the controller is a failed operation, not a crashed
// benchmark.
func runWorld(w world, drive func(c *core.Controller, until float64)) (u unit, c *core.Controller) {
	u.seed = w.cfg.Seed
	c, err := w.build()
	if err != nil {
		u.check(false, "set-up: %v", err)
		return u, nil
	}
	until := w.hours * 3600
	runtime.GC() // the previous run's garbage is not this run's cost
	before := readUsage()
	func() {
		defer func() {
			if r := recover(); r != nil {
				u.check(false, "controller panicked at t=%.0fs: %v", c.Eng.Now(), r)
			}
		}()
		drive(c, until)
	}()
	u.cost = readUsage().since(before)
	u.simS = c.Eng.Now()
	u.check(c.Eng.Now() >= until, "run stopped at t=%.0fs, want %.0fs", c.Eng.Now(), until)
	u.liveHeapMB = liveHeapMB()
	u.avail = [3]float64{
		c.Reach.Ratio(telemetry.LayerLink),
		c.Reach.Ratio(telemetry.LayerControl),
		c.Reach.Ratio(telemetry.LayerData),
	}
	u.processed = c.Eng.Processed
	u.digest = c.TelemetryDigest()
	u.ctl = [3]int{c.Crashes, c.Promotions, c.Standdowns}
	return u, c
}

// runPlain runs a world untraced on a harness-built controller. A
// fault-free run's outputs are then checked here; a run under faults is
// judged by search.Run's invariant suite instead (runTrial).
func runPlain(w world) unit {
	u, c := runWorld(w, (*core.Controller).Run)
	if c == nil || w.script != nil {
		return u
	}
	u.check(c.DuplicateEstablishes == 0, "%d duplicate establish commands", c.DuplicateEstablishes)
	mm := c.JournalIntentMismatches()
	u.check(len(mm) == 0, "%d journal/intent mismatches: %v", len(mm), mm)
	u.check(u.avail[0] >= u.avail[2], "avail_link %.4f < avail_data %.4f", u.avail[0], u.avail[2])
	return u
}

// runTrial times one pass of a chaos-search trial: search.Run builds
// the controller, installs the script and its invariant probes, runs
// it and judges it. It is one operation: failed if the run errored or
// any invariant was violated.
func runTrial(w world) (unit, search.Result) {
	u := unit{seed: w.cfg.Seed}
	runtime.GC()
	before := readUsage()
	res, err := search.Run(*w.script, search.Options{})
	u.cost = readUsage().since(before)
	u.simS = w.hours * 3600
	u.digest = res.Digest
	u.ctl = [3]int{res.Crashes, res.Promotions, res.Standdowns}
	switch {
	case err != nil:
		u.check(false, "trial: %v", err)
	case len(res.Violations) > 0:
		u.check(false, "trial violated %s: %s", res.Violations[0].Invariant, res.Violations[0].Detail)
	default:
		u.check(true, "")
	}
	return u, res
}

// untracedReps is how many times a window runs each world. The runs
// are identical, so every difference between them is the machine's:
// interference on a shared sandbox only ever adds time (whole runs of
// one world read 5.6 to 7.3 s here, the fastest of any three within
// 3 %), so the least cost of the repeats is what is reported, and the
// repeats double as the determinism evidence.
const untracedReps = 3

// measured is one world's outcome over its identical repeats: the
// first repeat's outcome at the least cost of any, as measured, and the
// machine's speed meanwhile.
type measured struct {
	unit
	digests, events []uint64 // one per repeat
	speedometer
}

// measureWorld runs a world reps times with one runner, the reference
// computation timed before each repeat and after the last.
func measureWorld(w world, reps int, run func(world) unit) measured {
	var m measured
	m.sample()
	for r := 0; r < reps; r++ {
		u := run(w)
		m.sample()
		m.digests = append(m.digests, u.digest)
		m.events = append(m.events, u.processed)
		if r == 0 {
			m.unit = u
			continue
		}
		m.cost.least(u.cost)
		m.judged(u)
	}
	return m
}

// checkEvents: repeats of a plain run must process the same events. A
// digest difference between them is reported, not failed
// (core.digests_distinct; bench/README.md, determinism).
func (m *measured) checkEvents() {
	m.check(distinct(m.events) == 1, "identical runs processed %d events", m.events)
}

// measureUntraced is one world of an untraced window: plain controller
// runs or, under faults, chaos-search trials.
func measureUntraced(w world) measured {
	if w.script == nil {
		m := measureWorld(w, untracedReps, runPlain)
		m.checkEvents()
		return m
	}
	m := measureWorld(w, untracedReps, func(w world) unit {
		u, _ := runTrial(w)
		return u
	})
	// The chaos search's own determinism invariant.
	m.check(distinct(m.digests) == 1, "telemetry digest diverged across identical trials: %x", m.digests)
	// search.Run reports neither availability nor the controller, so
	// those come from an untimed plain run of the same script. It must
	// be the run the trials timed, as far as a verdict shows (its digest
	// covers the invariant probes' events, so it cannot be compared).
	o := runPlain(w)
	m.avail, m.liveHeapMB = o.avail, o.liveHeapMB
	m.judged(o)
	m.check(o.ctl == m.ctl, "harness-built controller had %v crashes/promotions/stand-downs, the trial %v: chaosConfig differs from search.config", o.ctl, m.ctl)
	return m
}

func distinct(vs []uint64) int {
	seen := map[uint64]bool{}
	for _, d := range vs {
		seen[d] = true
	}
	return len(seen)
}

// setupRuns is how many times set-up is repeated; setup_s is their
// median.
const setupRuns = 301

// measureSetup times generating a world and wiring a controller from
// it (core.New, plus script generation and InstallChaos under faults),
// at nominal machine speed.
func measureSetup(s spec, seed int64) float64 {
	times := make([]float64, setupRuns)
	runtime.GC()
	var m speedometer
	m.sample()
	for i := range times {
		t0 := time.Now()
		c, _ := s.generate(seed, 0).build()
		times[i] = time.Since(t0).Seconds()
		runtime.KeepAlive(c)
	}
	m.sample()
	wall, _ := m.speed()
	return quantile(times, 0.5) * wall
}

// result is what one benchmark invocation reports for one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Worlds    int                `json:"worlds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Digests lists every untraced run's telemetry digest, world by
	// world, so two commits can be compared by eye.
	Digests [][]string `json:"digests,omitempty"`
	// Speed is the machine's speed relative to nominal while the window
	// ran (speed.go), which rtf and cpu_s_per_sim_hour are normalised by;
	// the Raw values are the two as the clocks read them.
	Speed             float64 `json:"machine_speed,omitempty"`
	RawRTF            float64 `json:"rtf_raw,omitempty"`
	RawCPUSPerSimHour float64 `json:"cpu_s_per_sim_hour_raw,omitempty"`

	Failures []string `json:"failures,omitempty"`
}

func (r *result) absorb(m measured) {
	r.Attempted += m.ops
	r.Failed += len(m.failures)
	r.Failures = append(r.Failures, m.failures...)
	if len(m.digests) > 0 {
		var ds []string
		for _, d := range m.digests {
			ds = append(ds, fmt.Sprintf("%016x", d))
		}
		r.Digests = append(r.Digests, ds)
	}
}

// runUntraced measures a workload's end-to-end metrics: set-up first,
// then the window's worlds, one whole run at a time in this process.
func runUntraced(s spec, seed int64, seconds float64) result {
	res := result{Workload: s.name, Seed: seed, Metrics: map[string]float64{}}
	res.Metrics["setup_s"] = measureSetup(s, seed)

	var total cost
	var simS, heap, wallS, cpuS float64 // wallS, cpuS: at nominal machine speed
	var avail [3]float64
	n := s.worldCount(seconds)
	res.Worlds = n
	for u := 0; u < n; u++ {
		m := measureUntraced(s.generate(seed, u))
		res.absorb(m)
		total.add(m.cost)
		wall, cpu := m.speed()
		wallS += m.cost.wallS * wall
		cpuS += m.cost.cpuS * cpu
		simS += m.simS
		heap += m.liveHeapMB
		for i := range avail {
			avail[i] += m.avail[i]
		}
	}
	simH := simS / 3600
	res.Metrics["rtf"] = simS / wallS
	res.Metrics["cpu_s_per_sim_hour"] = cpuS / simH
	res.Speed = wallS / total.wallS
	res.RawRTF = simS / total.wallS
	res.RawCPUSPerSimHour = total.cpuS / simH
	res.Metrics["alloc_mb_per_sim_hour"] = total.allocMB / simH
	res.Metrics["mallocs_per_sim_hour"] = total.mallocs / simH
	res.Metrics["live_heap_mb"] = heap / float64(n)
	res.Metrics["avail_link"] = avail[0] / float64(n)
	res.Metrics["avail_control"] = avail[1] / float64(n)
	res.Metrics["avail_data"] = avail[2] / float64(n)
	return res
}

// fabricLinks is the data plane's view of link state, as the
// controller's own samplers build it.
func fabricLinks(c *core.Controller) dataplane.LinkChecker {
	return dataplane.LinkCheckerFunc(func(a, b string) bool {
		_, ok := c.Fabric.LinkBetween(a, b)
		return ok
	})
}

// quantile returns the nearest-rank q-quantile of vs (0 for none, so a
// probe that never had anything to call still reports a finite value).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s stats.Sample
	s.AddAll(vs)
	return s.Quantile(q)
}
