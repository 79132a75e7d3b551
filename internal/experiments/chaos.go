package experiments

import (
	"math"

	"minkowski/internal/chaos"
	"minkowski/internal/core"
)

// ChaosAvail replays the standard fault script (controller crash, a
// satcom provider outage, frozen weather telemetry, a solver
// brown-out, and a gateway-site loss) against the baseline scenario
// and reports, per fault class, data-plane availability before /
// during / after the fault window — the figure the robustness work is
// judged by: every fault degrades gracefully and recovers, and a
// controller restart re-actuates nothing it already enacted.
func ChaosAvail(o Options) *Result {
	cfg := baseScenario(o)
	cfg.DisablePower = true
	c := core.New(cfg)
	scen := chaos.Standard()
	if _, err := c.InstallChaos(scen); err != nil {
		panic(err) // the standard script names the baseline fleet's own sites
	}

	// Fine-grained availability timeline through the fault windows.
	type point struct{ t, data, ctrl float64 }
	var timeline []point
	c.Eng.Every(30, func() bool {
		data, ctrl := c.PlaneFracs()
		timeline = append(timeline, point{c.Eng.Now(), data, ctrl})
		return true
	})
	c.RunHours(10) // the standard script ends at T+8.5h; leave settle time

	// meanData averages the data-plane series over [a, b).
	meanData := func(a, b float64) float64 {
		sum, n := 0.0, 0
		for _, p := range timeline {
			if p.t >= a && p.t < b && !math.IsNaN(p.data) {
				sum += p.data
				n++
			}
		}
		if n == 0 {
			return math.NaN()
		}
		return sum / float64(n)
	}

	const settleS = 1800
	res := &Result{ID: "chaosavail", Title: "Availability through the standard fault script"}
	res.Rows = append(res.Rows,
		Row{"controller crashes injected", "1", f("%d", c.Crashes)},
		Row{"duplicate establishes after restart", "0 (acceptance)", f("%d", c.DuplicateEstablishes)},
		Row{"journal intents readopted", "> 0", f("%d", c.Readopted)},
		Row{"journal intents expired", "(mid-flight at crash)", f("%d", c.ExpiredOnRestart)},
	)
	for _, flt := range scen.Faults {
		before := meanData(flt.At-settleS, flt.At)
		during := meanData(flt.At, flt.At+flt.Duration)
		after := meanData(flt.At+flt.Duration, flt.At+flt.Duration+settleS)
		label := flt.Kind.String()
		if flt.Target != "" {
			label += "(" + flt.Target + ")"
		}
		res.Rows = append(res.Rows,
			Row{label + " before/during/after", "degrade ≤ before, recover ≈ before",
				f("%s / %s / %s", pct(before), pct(during), pct(after))})
	}

	series := [][]string{{"t_s", "data_frac", "control_frac"}}
	for _, p := range timeline {
		series = append(series, []string{f("%.0f", p.t), f("%.3f", p.data), f("%.3f", p.ctrl)})
	}
	res.CSVName, res.CSV = "availability_timeline", series
	return res
}
