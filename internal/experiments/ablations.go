package experiments

import (
	"minkowski/internal/core"
	"minkowski/internal/stats"
	"minkowski/internal/telemetry"
)

// ablRun executes one controller variant and extracts the comparison
// metrics the ablations report.
type ablMetrics struct {
	dataAvail     float64
	ctrlAvail     float64
	withdrawnFrac float64 // planned share of installed-link ends
	linkEnds      int
	b2gMedian     float64
	enactFailRate float64
}

func ablRun(cfg core.Config, hours float64) ablMetrics {
	c := core.New(cfg)
	c.RunHours(hours)
	m := ablMetrics{
		dataAvail: c.Reach.Ratio(telemetry.LayerData),
		ctrlAvail: c.Reach.Ratio(telemetry.LayerControl),
		b2gMedian: c.LinkLife.B2G.Median(),
	}
	total := c.LinkLife.EndsB2G.Total() + c.LinkLife.EndsB2B.Total()
	m.linkEnds = total
	if total > 0 {
		w := c.LinkLife.EndsB2G.Get("withdrawn") + c.LinkLife.EndsB2B.Get("withdrawn")
		m.withdrawnFrac = float64(w) / float64(total)
	}
	okN, failN := 0, 0
	for _, e := range c.Frontend.Enactments {
		if e.OK {
			okN++
		} else {
			failN++
		}
	}
	if okN+failN > 0 {
		m.enactFailRate = float64(failN) / float64(okN+failN)
	}
	return m
}

func ablBase(o Options) core.Config {
	cfg := baseScenario(o)
	cfg.DisablePower = true
	return cfg
}

// AblationHysteresis compares the production hysteresis against a
// memoryless solver (§3.2: "we ... dampened the rate of change by
// biasing toward topologies that kept established links"). Without
// hysteresis the topology churns: more link ends per hour and more
// teardown/re-establish cycles for the same fleet.
func AblationHysteresis(o Options) *Result {
	hours := 6 * float64(o.scale())
	on := ablRun(ablBase(o), hours)
	cfg := ablBase(o)
	cfg.SolverHysteresisBonus = 0
	off := ablRun(cfg, hours)
	res := &Result{ID: "abl-hysteresis", Title: "Solver hysteresis on vs off"}
	res.Rows = []Row{
		{"link ends (hysteresis on)", "fewer", f("%d", on.linkEnds)},
		{"link ends (hysteresis off)", "more (churn)", f("%d", off.linkEnds)},
		{"data availability on/off", "on ≥ off", f("%.3f / %.3f", on.dataAvail, off.dataAvail)},
	}
	return res
}

// AblationRedundancy compares the secondary redundancy objective
// against a lean tree topology (§3.2: "tasking idle transceivers to
// provide redundancy was a good trade off").
func AblationRedundancy(o Options) *Result {
	hours := 6 * float64(o.scale())
	on := ablRun(ablBase(o), hours)
	cfg := ablBase(o)
	cfg.RedundancyTargetFrac = 0
	off := ablRun(cfg, hours)
	res := &Result{ID: "abl-redundancy", Title: "Redundancy objective on vs off"}
	res.Rows = []Row{
		{"control availability (redundancy on)", "higher", f("%.3f", on.ctrlAvail)},
		{"control availability (off)", "lower", f("%.3f", off.ctrlAvail)},
		{"data availability on/off", "on ≥ off", f("%.3f / %.3f", on.dataAvail, off.dataAvail)},
	}
	return res
}

// AblationMarginal compares retaining penalized marginal links
// against dropping them (§3.1: marginal links were "attempted when no
// acceptable links were available").
func AblationMarginal(o Options) *Result {
	hours := 6 * float64(o.scale())
	keep := ablRun(ablBase(o), hours)
	cfg := ablBase(o)
	cfg.DropMarginalLinks = true
	drop := ablRun(cfg, hours)
	res := &Result{ID: "abl-marginal", Title: "Marginal-link retention on vs off"}
	res.Rows = []Row{
		{"data availability (retain)", "higher at the fringe", f("%.3f", keep.dataAvail)},
		{"data availability (drop)", "lower", f("%.3f", drop.dataAvail)},
		{"control availability retain/drop", "-", f("%.3f / %.3f", keep.ctrlAvail, drop.ctrlAvail)},
	}
	return res
}

// AblationTTE compares the production satcom TTE (p95 one-way, 186 s)
// against an optimistic median-based TTE (§4.2's challenge: "choosing
// a TTE that allowed command delivery to all nodes, but did not cause
// unneeded delay, was challenging"). An optimistic TTE causes commands
// to arrive after their enactment time and be discarded.
func AblationTTE(o Options) *Result {
	hours := 4 * float64(o.scale())
	cfgP95 := ablBase(o)
	p95 := ablRun(cfgP95, hours)
	cfgP50 := ablBase(o)
	cfgP50.TTESatcomOverrideS = 55 // ~median one-way delivery
	p50 := ablRun(cfgP50, hours)
	res := &Result{ID: "abl-tte", Title: "Satcom TTE policy: p95 vs optimistic p50"}
	res.Rows = []Row{
		{"command failure rate (p95 TTE)", "lower", pct(p95.enactFailRate)},
		{"command failure rate (p50 TTE)", "higher (late sync commands dropped)", pct(p50.enactFailRate)},
		{"data availability p95/p50", "-", f("%.3f / %.3f", p95.dataAvail, p50.dataAvail)},
	}
	return res
}

// AblationWeather compares weather-input sets (§5: gauges proved more
// useful than forecasts, which were "not a large improvement over
// probabilistic models"). We compare planning accuracy via B2G
// outcomes under each input set in a wet season.
func AblationWeather(o Options) *Result {
	hours := 6 * float64(o.scale())
	run := func(sources string) ablMetrics {
		cfg := ablBase(o)
		cfg.WeatherCellsPerHour = 12
		cfg.WeatherSources = sources
		return ablRun(cfg, hours)
	}
	all := run("all")
	gauges := run("gauges")
	forecast := run("forecast")
	itu := run("itu")
	res := &Result{ID: "abl-weather", Title: "Weather-input ablation: fusion vs single sources"}
	row := func(name string, m ablMetrics, paper string) Row {
		return Row{name, paper, f("data=%.3f b2gMedian=%s", m.dataAvail, stats.FmtDuration(m.b2gMedian))}
	}
	res.Rows = []Row{
		row("fused (gauges+forecast+itu)", all, "best"),
		row("gauges only", gauges, "close to fused"),
		row("forecast only", forecast, "marginal utility"),
		row("itu seasonal only", itu, "workable backstop"),
	}
	return res
}

// Ablations runs the full ablation suite.
func Ablations(o Options) []*Result {
	return []*Result{
		AblationHysteresis(o), AblationRedundancy(o), AblationMarginal(o),
		AblationTTE(o), AblationWeather(o),
	}
}
