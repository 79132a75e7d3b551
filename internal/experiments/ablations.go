package experiments

import (
	"minkowski/internal/core"
	"minkowski/internal/stats"
	"minkowski/internal/telemetry"
)

// armMetrics are what a comparison reads off one arm's world: the
// ablations and the headline.
type armMetrics struct {
	dataAvail     float64
	ctrlAvail     float64
	withdrawnFrac float64 // planned share of installed-link ends
	linkEnds      int
	b2gMedian     float64
	enactFailRate float64
	// Fig. 8's repair means, withdrawn- vs failed-caused.
	repairWithdrawn, repairFailed, repairGain float64
}

// arm extracts one arm's metrics.
func arm(c *core.Controller) armMetrics {
	m := armMetrics{
		dataAvail:       c.Reach.Ratio(telemetry.LayerData),
		ctrlAvail:       c.Reach.Ratio(telemetry.LayerControl),
		b2gMedian:       c.LinkLife.B2G.Median(),
		repairWithdrawn: c.Recovery.Withdrawn.Mean(),
		repairFailed:    c.Recovery.Failed.Mean(),
		repairGain:      c.Recovery.MeanImprovement(),
	}
	m.linkEnds = c.LinkLife.EndsB2G.Total() + c.LinkLife.EndsB2B.Total()
	if m.linkEnds > 0 {
		w := c.LinkLife.EndsB2G.Get("withdrawn") + c.LinkLife.EndsB2B.Get("withdrawn")
		m.withdrawnFrac = float64(w) / float64(m.linkEnds)
	}
	failN := 0
	for _, e := range c.Frontend.Enactments {
		if !e.OK {
			failN++
		}
	}
	if n := len(c.Frontend.Enactments); n > 0 {
		m.enactFailRate = float64(failN) / float64(n)
	}
	return m
}

// ablHysteresis compares the production hysteresis against a
// memoryless solver (§3.2: "we ... dampened the rate of change by
// biasing toward topologies that kept established links"). Without
// hysteresis the topology churns: more link ends per hour and more
// teardown/re-establish cycles for the same fleet.
func ablHysteresis(m []armMetrics) []Row {
	return []Row{
		{"link ends (hysteresis on)", "fewer", f("%d", m[0].linkEnds)},
		{"link ends (hysteresis off)", "more (churn)", f("%d", m[1].linkEnds)},
		{"data availability on/off", "on ≥ off", f("%.3f / %.3f", m[0].dataAvail, m[1].dataAvail)},
	}
}

// ablRedundancy compares the secondary redundancy objective
// against a lean tree topology (§3.2: "tasking idle transceivers to
// provide redundancy was a good trade off").
func ablRedundancy(m []armMetrics) []Row {
	return []Row{
		{"control availability (redundancy on)", "higher", f("%.3f", m[0].ctrlAvail)},
		{"control availability (off)", "lower", f("%.3f", m[1].ctrlAvail)},
		{"data availability on/off", "on ≥ off", f("%.3f / %.3f", m[0].dataAvail, m[1].dataAvail)},
	}
}

// ablMarginal compares retaining penalized marginal links
// against dropping them (§3.1: marginal links were "attempted when no
// acceptable links were available").
func ablMarginal(m []armMetrics) []Row {
	return []Row{
		{"data availability (retain)", "higher at the fringe", f("%.3f", m[0].dataAvail)},
		{"data availability (drop)", "lower", f("%.3f", m[1].dataAvail)},
		{"control availability retain/drop", "-", f("%.3f / %.3f", m[0].ctrlAvail, m[1].ctrlAvail)},
	}
}

// ablTTE compares the production satcom TTE (p95 one-way, 186 s)
// against an optimistic median-based TTE (§4.2's challenge: "choosing
// a TTE that allowed command delivery to all nodes, but did not cause
// unneeded delay, was challenging"). An optimistic TTE causes commands
// to arrive after their enactment time and be discarded.
func ablTTE(m []armMetrics) []Row {
	return []Row{
		{"command failure rate (p95 TTE)", "lower", pct(m[0].enactFailRate)},
		{"command failure rate (p50 TTE)", "higher (late sync commands dropped)", pct(m[1].enactFailRate)},
		{"data availability p95/p50", "-", f("%.3f / %.3f", m[0].dataAvail, m[1].dataAvail)},
	}
}

// ablWeather compares weather-input sets (§5: gauges proved more
// useful than forecasts, which were "not a large improvement over
// probabilistic models"). We compare planning accuracy via B2G
// outcomes under each input set in a wet season.
func ablWeather(m []armMetrics) []Row {
	row := func(name string, m armMetrics, paper string) Row {
		return Row{name, paper, f("data=%.3f b2gMedian=%s", m.dataAvail, stats.FmtDuration(m.b2gMedian))}
	}
	return []Row{
		row("fused (gauges+forecast+itu)", m[0], "best"),
		row("gauges only", m[1], "close to fused"),
		row("forecast only", m[2], "marginal utility"),
		row("itu seasonal only", m[3], "workable backstop"),
	}
}
