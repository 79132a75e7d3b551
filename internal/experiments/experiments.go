// Package experiments regenerates every quantitative figure in the
// paper's evaluation from one table of seeded worlds (runner.go;
// DESIGN.md §3). Each figure is a Result: named rows mirroring the
// series the paper reports, plus optional CSV data for plotting.
//
// The Scale parameter trades fidelity for wall-clock time: Scale 1 is
// the quick (bench/CI) variant; Scale 3+ approaches the paper's fleet
// sizes and durations.
package experiments

import (
	"fmt"
	"strings"

	"minkowski/internal/core"
	"minkowski/internal/stats"
)

// Row is one reported quantity: a label, the paper's published value
// (as a string, verbatim), and our measured value.
type Row struct {
	Metric   string
	Paper    string
	Measured string
}

// Result is one experiment's output.
type Result struct {
	ID    string
	Title string
	Rows  []Row
	// CSV is the plottable table (header + records), if any; CSVName
	// names it.
	CSVName string
	CSV     [][]string
}

// String renders the result as an aligned table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	w := 0
	for _, row := range r.Rows {
		if len(row.Metric) > w {
			w = len(row.Metric)
		}
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-*s  paper: %-18s measured: %s\n", w, row.Metric, row.Paper, row.Measured)
	}
	return b.String()
}

// Options configure an experiment run.
type Options struct {
	// Seed drives the scenario.
	Seed int64
	// Scale multiplies fleet size and duration (1 = quick).
	Scale int
}

func (o Options) scale() int {
	if o.Scale < 1 {
		return 1
	}
	return o.Scale
}

// baseScenario returns the shared scenario shape.
func baseScenario(o Options) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.FleetSize = 6 + 5*o.scale() // 11 at scale 1, 21 at scale 3
	cfg.SolveIntervalS = 120
	cfg.AgentConnCheckS = 10
	return cfg
}

func f(format string, args ...interface{}) string { return fmt.Sprintf(format, args...) }

func pct(x float64) string { return f("%.1f%%", 100*x) }

func dur(s *stats.Sample, q float64) string {
	return stats.FmtDuration(s.Quantile(q))
}
