package experiments

import (
	"minkowski/internal/core"
	"minkowski/internal/stats"
	"minkowski/internal/telemetry"
)

// Fig04 reproduces the candidate-graph churn analysis: "the candidate
// graph changed in 99.9% of hours with 13% median change. Only 3.5%
// of minutes saw a stable candidate graph, and at median 10 links
// changed minute to minute." Mean graph size was 3275 links.
func Fig04(o Options) *Result {
	cfg := baseScenario(o)
	cfg.ChurnSampling = true
	cfg.DisablePower = true // churn is about motion, not power
	// Churn statistics need a fleet large enough that the candidate
	// graph has a meaningful population near range/margin boundaries.
	cfg.FleetSize = 15 + 10*o.scale()
	c := core.New(cfg)
	hours := 12 * float64(o.scale())
	c.RunHours(hours)
	ch := c.Churn
	res := &Result{ID: "fig04", Title: "Hour-to-hour deltas in the candidate link set", CSV: map[string][][]string{}}
	res.Rows = []Row{
		{"hours with any change", "99.9%", pct(ch.ChangedHourFrac())},
		{"median hourly change", "13%", pct(ch.HourlyFrac.Median())},
		{"stable minutes", "3.5%", pct(ch.StableMinuteFrac())},
		{"median links changed/min", "10", f("%.0f", ch.MinuteChanged.Median())},
		{"mean candidate links", "3275 (100+ xcvrs)", f("%.0f (%d xcvrs)", ch.Size.Mean(), (15+10*o.scale())*3+6)},
		{"B2B candidates (min–max)", "0–6595", f("%.0f–%.0f", ch.B2B.Min(), ch.B2B.Max())},
		{"B2G candidates (min–max)", "0–750", f("%.0f–%.0f", ch.B2G.Min(), ch.B2G.Max())},
	}
	res.CSV["hourly_delta_cdf"] = cdfCSV(50, "%.4f", cdfSeries{"frac_changed", &ch.HourlyFrac})
	return res
}

// Fig06 reproduces the layered availability metrics: link layer
// highest, data plane lowest, with redundancy + MANET pushing control
// above link late in the deployment.
func Fig06(o Options) *Result {
	cfg := baseScenario(o)
	days := 2 * o.scale()
	c := core.New(cfg)
	c.RunHours(24 * float64(days))
	res := &Result{ID: "fig06", Title: "Aggregated node-level reachability", CSV: map[string][][]string{}}
	link := c.Reach.Ratio(telemetry.LayerLink)
	ctrl := c.Reach.Ratio(telemetry.LayerControl)
	data := c.Reach.Ratio(telemetry.LayerData)
	res.Rows = []Row{
		{"link-layer availability", "highest of the three", f("%.3f", link)},
		{"control-plane availability", "≈ link (above it after Dec 2020)", f("%.3f", ctrl)},
		{"data-plane availability", "lowest of the three", f("%.3f", data)},
		{"ordering link ≥ data", "yes", f("%v", link >= data-0.02)},
	}
	var series [][]string
	series = append(series, []string{"day", "link", "control", "data"})
	ls, cs, ds := c.Reach.Series(telemetry.LayerLink), c.Reach.Series(telemetry.LayerControl), c.Reach.Series(telemetry.LayerData)
	for i := 0; i < len(ls) && i < len(cs) && i < len(ds); i++ {
		series = append(series, []string{f("%d", i), f("%.3f", ls[i]), f("%.3f", cs[i]), f("%.3f", ds[i])})
	}
	res.CSV["daily_series"] = series
	return res
}

// Fig07 reproduces redundancy utilization: "14% of the time the
// established mesh had no redundancy ... at median, meshes utilize
// 53% of available transceivers ... lower than the intended level
// (70% at median)."
func Fig07(o Options) *Result {
	cfg := baseScenario(o)
	cfg.DisablePower = true
	c := core.New(cfg)
	c.RunHours(8 * float64(o.scale()))
	rd := c.Redund
	res := &Result{ID: "fig07", Title: "Redundant links intended vs established", CSV: map[string][][]string{}}
	res.Rows = []Row{
		{"time with no redundancy", "14%", pct(rd.ZeroFrac())},
		{"median established fraction", "53%", pct(rd.Established.Median())},
		{"median intended fraction", "70%", pct(rd.Intended.Median())},
		{"established < intended", "yes", f("%v", rd.Established.Median() < rd.Intended.Median())},
	}
	res.CSV["redundancy_cdf"] = cdfCSV(25, "%.3f",
		cdfSeries{"established", &rd.Established}, cdfSeries{"intended", &rd.Intended})
	return res
}

// Fig08 reproduces route-recovery timing: recoveries co-occurring
// with planned withdrawals are ~2.9× more common and repair 37.8%
// faster on average than unexpected failures; 75% of recoveries take
// <20 s; 92.4% recover without a new link.
func Fig08(o Options) *Result {
	cfg := baseScenario(o)
	cfg.DisablePower = true
	c := core.New(cfg)
	c.RunHours(10 * float64(o.scale()))
	rc := c.Recovery
	ctrl := c.RecoveryCtrl
	res := &Result{ID: "fig08", Title: "Time to repair broken routes (<5 min recoveries)", CSV: map[string][][]string{}}
	// The paper's "75% < 20 s" and "92.4% without a new link" describe
	// the CONTROL-plane breakages underlying broken routes ("due to
	// the level of redundancy in the mesh and our use of AODV").
	withoutNew := float64(ctrl.RecoveredWithoutNewLink) /
		float64(max(1, ctrl.RecoveredWithNewLink+ctrl.RecoveredWithoutNewLink))
	under20 := 0.0
	all := append(append(append([]float64{}, ctrl.Withdrawn.Values()...), ctrl.Failed.Values()...), ctrl.Unknown.Values()...)
	var allS stats.Sample
	allS.AddAll(all)
	if allS.N() > 0 {
		under20 = allS.FracBelow(20)
	}
	res.Rows = []Row{
		{"withdrawn-caused recoveries", "2.9× failed-caused", f("%d vs %d (%.1fx)", rc.Withdrawn.N(), rc.Failed.N(), ratio(rc.Withdrawn.N(), rc.Failed.N()))},
		{"mean repair (withdrawn)", "37.8% faster", stats.FmtDuration(rc.Withdrawn.Mean())},
		{"mean repair (failed)", "-", stats.FmtDuration(rc.Failed.Mean())},
		{"improvement", "37.8%", pct(c.Recovery.MeanImprovement())},
		{"control breakages < 20 s", "75%", pct(under20)},
		{"recovered w/o new link", "92.4%", pct(withoutNew)},
	}
	res.CSV["recovery_cdf"] = cdfCSV(25, "%.1f",
		cdfSeries{"withdrawn", &rc.Withdrawn}, cdfSeries{"failed", &rc.Failed})
	return res
}

// Fig09 reproduces enactment-time distributions vs control-channel
// RTT: satcom RTT median 1m27s / p90 5m47s / p99 14m50s; in-band
// sub-second median RTT; link intents gated by radio search (+TTE on
// satcom); route intents fast but with a reconvergence tail.
func Fig09(o Options) *Result {
	cfg := baseScenario(o)
	c := core.New(cfg)
	c.RunHours(8 * float64(o.scale()))
	res := &Result{ID: "fig09", Title: "Intent enactment time vs control channel RTT", CSV: map[string][][]string{}}
	var link, route stats.Sample
	satCount, ibCount := 0, 0
	for _, e := range c.Frontend.Enactments {
		if !e.OK {
			continue
		}
		switch e.Kind.String() {
		case "link-establish":
			link.Add(e.Latency())
		case "route-update":
			route.Add(e.Latency())
		}
		if e.Channel.String() == "satcom" {
			satCount++
		} else {
			ibCount++
		}
	}
	res.Rows = []Row{
		{"link intent median", "minutes (satcom TTE + search)", dur(&link, 0.5)},
		{"link intent p90", "-", dur(&link, 0.9)},
		{"route intent median", "seconds (in-band)", dur(&route, 0.5)},
		{"route intent p90", "tail from reconvergence", dur(&route, 0.9)},
		{"route ≪ link medians", "yes", f("%v", route.Median() < link.Median())},
		{"completions via in-band", "most, once mesh is up", f("%d vs %d satcom", ibCount, satCount)},
		{"satcom retries", "-", f("%d timeouts, %d retries", c.Frontend.Timeouts, c.Frontend.Retries)},
	}
	var csv [][]string
	csv = append(csv, []string{"kind", "p50", "p90", "p99"})
	csv = append(csv, []string{"link-establish", f("%.1f", link.Quantile(0.5)), f("%.1f", link.Quantile(0.9)), f("%.1f", link.Quantile(0.99))})
	csv = append(csv, []string{"route-update", f("%.1f", route.Quantile(0.5)), f("%.1f", route.Quantile(0.9)), f("%.1f", route.Quantile(0.99))})
	res.CSV["enactment_quantiles"] = csv
	return res
}

// Fig10 reproduces the modelled-vs-measured B2B attenuation error:
// a +4.3 dB pessimistic shift, a side-lobe bump near −14 dB, and
// weather-driven tails.
func Fig10(o Options) *Result {
	cfg := baseScenario(o)
	cfg.DisablePower = true
	c := core.New(cfg)
	c.RunHours(8 * float64(o.scale()))
	me := c.ModelErr.Errors
	res := &Result{ID: "fig10", Title: "Measured minus modelled B2B channel error", CSV: map[string][][]string{}}
	res.Rows = []Row{
		{"median shift (pessimism)", "+4.3 dB", f("%+.1f dB", me.Median())},
		{"shift is positive", "yes", f("%v", me.Median() > 0)},
		{"p10 (weather/side-lobe tail)", "long negative tail", f("%+.1f dB", me.Quantile(0.1))},
		{"samples", "-", f("%d", me.N())},
	}
	centers, counts := me.Histogram(-25, 15, 40)
	var hist [][]string
	hist = append(hist, []string{"error_db", "count"})
	for i := range centers {
		hist = append(hist, []string{f("%.1f", centers[i]), f("%d", counts[i])})
	}
	res.CSV["error_histogram"] = hist
	return res
}

// Fig11 reproduces link-lifetime statistics: B2G median 1m45s (44.8%
// under a minute), B2B median 25m55s (15% early mortality);
// first-attempt success 51% B2G / 40% B2B; 35% of pairs never
// succeed; unexpected end states 47.4% overall (69.2% B2G / 39.2%
// B2B).
func Fig11(o Options) *Result {
	cfg := baseScenario(o)
	cfg.DisablePower = true
	cfg.WeatherCellsPerHour = 10
	c := core.New(cfg)
	c.RunHours(12 * float64(o.scale()))
	ll := c.LinkLife
	res := &Result{ID: "fig11", Title: "Distribution of link lifetimes", CSV: map[string][][]string{}}
	g, b := ll.FirstAttemptRate()
	overall, ug, ub := ll.UnexpectedEndFrac()
	res.Rows = []Row{
		{"B2G median lifetime", "1m45s", dur(&ll.B2G, 0.5)},
		{"B2B median lifetime", "25m55s", dur(&ll.B2B, 0.5)},
		{"B2B outlives B2G", "yes (≈15×)", f("%v (%.1fx)", ll.B2B.Median() > ll.B2G.Median(), ll.B2B.Median()/ll.B2G.Median())},
		{"B2G < 1 min", "44.8%", pct(ll.B2G.FracBelow(60))},
		{"B2B < 1 min (early mortality)", "15.0%", pct(ll.B2B.FracBelow(60))},
		{"first-attempt success B2G", "51%", pct(g)},
		{"first-attempt success B2B", "40%", pct(b)},
		{"pairs never succeeded", "35%", pct(ll.NeverSucceededFrac())},
		{"unexpected ends overall", "47.4%", pct(overall)},
		{"unexpected ends B2G", "69.2%", pct(ug)},
		{"unexpected ends B2B", "39.2%", pct(ub)},
	}
	res.CSV["lifetime_cdf"] = cdfCSV(30, "%.0f", cdfSeries{"b2g", &ll.B2G}, cdfSeries{"b2b", &ll.B2B})
	return res
}

// cdfSeries is one named sample of a CDF export.
type cdfSeries struct {
	name string
	s    *stats.Sample
}

// cdfCSV renders CDFs in long format: a series,x,cum_prob header, then
// each series on its own n-point grid, x formatted with xfmt.
func cdfCSV(n int, xfmt string, series ...cdfSeries) [][]string {
	out := [][]string{{"series", "x", "cum_prob"}}
	for _, sr := range series {
		for _, p := range sr.s.CDF(n) {
			out = append(out, []string{sr.name, f(xfmt, p.X), f("%.3f", p.P)})
		}
	}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
