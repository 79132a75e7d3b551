package experiments

import (
	"cmp"
	"slices"

	"minkowski/internal/core"
)

// scenarios are the named worlds the table reads, each an edit of
// baseScenario with the diurnal power cycle off ("base" turns it back
// on). Every read of the same name in one invocation shares one world.
var scenarios = map[string]func(Options, *core.Config){
	"base":    func(_ Options, c *core.Config) { c.DisablePower = false },
	"nopower": func(Options, *core.Config) {},
	// Churn statistics need a fleet large enough that the candidate
	// graph has a meaningful population near range/margin boundaries.
	"churn":         func(o Options, c *core.Config) { c.ChurnSampling, c.FleetSize = true, 15+10*o.scale() },
	"wet":           func(_ Options, c *core.Config) { c.WeatherCellsPerHour = 10 },
	"reactive":      func(_ Options, c *core.Config) { c.WeatherCellsPerHour, c.PredictiveLeadS = 10, 0 },
	"no-hysteresis": func(_ Options, c *core.Config) { c.SolverHysteresisBonus = 0 },
	"no-redundancy": func(_ Options, c *core.Config) { c.RedundancyTargetFrac = 0 },
	"drop-marginal": func(_ Options, c *core.Config) { c.DropMarginalLinks = true },
	"tte-p50":       func(_ Options, c *core.Config) { c.TTESatcomOverrideS = 55 }, // ~median one-way delivery
	"rain-fused":    rain("all"),
	"rain-gauges":   rain("gauges"),
	"rain-forecast": rain("forecast"),
	"rain-itu":      rain("itu"),
}

// rain is the weather ablation's wet season, planned from one input set.
func rain(sources string) func(Options, *core.Config) {
	return func(_ Options, c *core.Config) { c.WeatherCellsPerHour, c.WeatherSources = 12, sources }
}

// An entry is one Result: extract reads each of its worlds once it has
// run hours×Scale simulated hours, and render builds the Result from
// those reads (an entry with no worlds builds its own). suite is the
// -fig value that runs the entry with its peers ("" for none).
type entry struct {
	id, suite string
	hours     float64
	worlds    []string
	extract   func(*core.Controller) any
	render    func(Options, []any) *Result
}

// table is every Result the package renders, in paper order within
// each suite.
var table = []entry{
	figure("fig04", "Hour-to-hour deltas in the candidate link set", "churn", 12, fig04),
	figure("fig06", "Aggregated node-level reachability", "base", 48, fig06),
	figure("fig07", "Redundant links intended vs established", "nopower", 8, fig07),
	figure("fig08", "Time to repair broken routes (<5 min recoveries)", "nopower", 10, fig08),
	figure("fig09", "Intent enactment time vs control channel RTT", "base", 8, fig09),
	figure("fig10", "Measured minus modelled B2B channel error", "nopower", 8, fig10),
	figure("fig11", "Distribution of link lifetimes", "wet", 12, fig11),
	compare("headline", "all", "Predictive vs reactive recovery (§8)", 8, headline, "wet", "reactive"),
	alone("appA", "all", AppA),
	alone("appD", "all", AppD),
	alone("fig13", "all", Fig13),
	compare("abl-hysteresis", "ablations", "Solver hysteresis on vs off", 6, ablHysteresis, "nopower", "no-hysteresis"),
	compare("abl-redundancy", "ablations", "Redundancy objective on vs off", 6, ablRedundancy, "nopower", "no-redundancy"),
	compare("abl-marginal", "ablations", "Marginal-link retention on vs off", 6, ablMarginal, "nopower", "drop-marginal"),
	compare("abl-tte", "ablations", "Satcom TTE policy: p95 vs optimistic p50", 4, ablTTE, "nopower", "tte-p50"),
	compare("abl-weather", "ablations", "Weather-input ablation: fusion vs single sources", 6, ablWeather,
		"rain-fused", "rain-gauges", "rain-forecast", "rain-itu"),
	alone("chaosavail", "", ChaosAvail),
}

// figure is the entry of a Result read off one world: body fills its
// rows and CSV table.
func figure(id, title, world string, hours float64, body func(*core.Controller, *Result)) entry {
	return entry{id, "all", hours, []string{world},
		func(c *core.Controller) any {
			res := &Result{ID: id, Title: title}
			body(c, res)
			return res
		},
		func(_ Options, got []any) *Result { return got[0].(*Result) }}
}

// compare is the entry of a comparison of arms, one world each.
func compare(id, suite, title string, hours float64, rows func([]armMetrics) []Row, worlds ...string) entry {
	return entry{id, suite, hours, worlds,
		func(c *core.Controller) any { return arm(c) },
		func(_ Options, got []any) *Result {
			m := make([]armMetrics, len(got))
			for i, g := range got {
				m[i] = g.(armMetrics)
			}
			return &Result{ID: id, Title: title, Rows: rows(m)}
		}}
}

// alone is the entry of a Result that builds its own world.
func alone(id, suite string, fn func(Options) *Result) entry {
	return entry{id: id, suite: suite, render: func(o Options, _ []any) *Result { return fn(o) }}
}

// IDs lists every table entry's ID in table order.
func IDs() []string {
	ids := make([]string, len(table))
	for i, e := range table {
		ids[i] = e.id
	}
	return ids
}

// Run renders, in table order, every table entry whose ID or suite
// ("all", "ablations") is among names.
func Run(o Options, names ...string) []*Result {
	var es []entry
	for _, e := range table {
		if slices.Contains(names, e.id) || slices.Contains(names, e.suite) {
			es = append(es, e)
		}
	}
	return run(o, es)
}

// run simulates the entries' worlds, then renders each entry.
func run(o Options, entries []entry) []*Result {
	got := simulate(o, entries)
	out := make([]*Result, len(entries))
	for i, e := range entries {
		out[i] = e.render(o, got[i])
	}
	return out
}

// simulate builds each scenario the entries read once and advances it
// through its reads' horizons in non-decreasing order, extracting at
// each: got[i][w] is what entry i read off its world w. DESIGN.md §3
// says why sharing a world is exact.
func simulate(o Options, entries []entry) (got [][]any) {
	type read struct{ e, w int } // entries[e].worlds[w]
	var reads []read
	got = make([][]any, len(entries))
	for i, e := range entries {
		got[i] = make([]any, len(e.worlds))
		for w := range e.worlds {
			reads = append(reads, read{i, w})
		}
	}
	world := func(r read) string { return entries[r.e].worlds[r.w] }
	slices.SortStableFunc(reads, func(a, b read) int {
		return cmp.Or(cmp.Compare(world(a), world(b)), cmp.Compare(entries[a.e].hours, entries[b.e].hours))
	})
	var c *core.Controller
	for i, r := range reads {
		if i == 0 || world(r) != world(reads[i-1]) {
			cfg := baseScenario(o)
			cfg.DisablePower = true
			scenarios[world(r)](o, &cfg)
			c = core.New(cfg)
		}
		c.Run(entries[r.e].hours * float64(o.scale()) * 3600)
		got[r.e][r.w] = entries[r.e].extract(c)
	}
	return got
}
