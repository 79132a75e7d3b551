package core

import (
	"fmt"
	"math"
	"testing"

	"minkowski/internal/explain"
	"minkowski/internal/platform"
	"minkowski/internal/telemetry"
)

// fastConfig returns a small, quick scenario for integration tests:
// 8 balloons, power always on, 1-minute solves.
func fastConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.FleetSize = 8
	cfg.SolveIntervalS = 60
	cfg.DisablePower = true
	cfg.AgentConnCheckS = 5
	return cfg
}

func TestControllerBootstrapsNetwork(t *testing.T) {
	c := New(fastConfig(1))
	c.RunHours(2)
	// Links must have formed.
	up := c.Fabric.UpLinks()
	if len(up) == 0 {
		t.Fatal("no links established after 2 h")
	}
	// Some balloons must have in-band control connectivity.
	ctrl := 0
	for id := range c.Fleet.Balloons {
		if c.InBand.Connected(id) {
			ctrl++
		}
	}
	if ctrl == 0 {
		t.Error("no balloon has in-band control connectivity")
	}
	// Data-plane routes must be programmed.
	routes := c.Data.Routes()
	if len(routes) == 0 {
		t.Error("no data-plane routes declared")
	}
	programmed := 0
	for _, r := range routes {
		if c.Data.FullyProgrammed(r.ID) {
			programmed++
		}
	}
	if programmed == 0 {
		t.Error("no route fully programmed")
	}
	if c.SolveRuns < 100 {
		t.Errorf("solve cycles = %d, want ~120", c.SolveRuns)
	}
}

func TestControllerDeterminism(t *testing.T) {
	run := func() []byte {
		c := New(fastConfig(42))
		c.RunHours(1)
		return fmt.Appendf(runExports(c), "links %d history %d\n", len(c.Fabric.UpLinks()), len(c.Intents.History()))
	}
	diffRuns(t, "second run", run(), run())
}

func TestTelemetryPopulated(t *testing.T) {
	c := New(fastConfig(2))
	c.RunHours(3)
	for _, layer := range []telemetry.Layer{telemetry.LayerLink, telemetry.LayerControl, telemetry.LayerData} {
		ratio := c.Reach.Ratio(layer)
		if math.IsNaN(ratio) {
			t.Errorf("layer %v has no reachability data", layer)
			continue
		}
		if ratio <= 0.05 || ratio > 1 {
			t.Errorf("layer %v availability = %v — suspicious", layer, ratio)
		}
	}
	// Some completed links must have been recorded.
	if c.LinkLife.B2B.N()+c.LinkLife.B2G.N() == 0 {
		t.Log("note: no completed installed links yet (they may all still be up)")
	}
	// Model-error samples accumulate from established B2B links.
	if c.ModelErr.Errors.N() == 0 {
		t.Error("no modelled-vs-measured samples")
	}
}

func TestDailyPowerCycle(t *testing.T) {
	cfg := fastConfig(3)
	cfg.DisablePower = false
	cfg.StartTODHours = 10 // mid-morning: powered
	c := New(cfg)
	c.RunHours(4) // 10:00 → 14:00
	day := len(c.Fabric.UpLinks())
	if day == 0 {
		t.Fatal("no daytime links")
	}
	// Run into the deep night (14:00 → 02:00).
	c.RunHours(12)
	night := len(c.Fabric.UpLinks())
	if night != 0 {
		t.Errorf("links at 02:00 = %d, want 0 (payloads dark)", night)
	}
	// And through the next morning (02:00 → 11:00): the network must
	// re-bootstrap by itself.
	c.RunHours(9)
	morning := len(c.Fabric.UpLinks())
	if morning == 0 {
		t.Error("network failed to re-bootstrap after dawn")
	}
}

func TestEventLogAndScrubber(t *testing.T) {
	c := New(fastConfig(4))
	c.RunHours(2)
	if len(c.Log.Query(explain.Filter{})) == 0 {
		t.Fatal("empty event log")
	}
	solves := c.Log.Query(explain.Filter{Kind: "solve"})
	if len(solves) < 100 {
		t.Errorf("solve events = %d", len(solves))
	}
	ups := c.Log.Query(explain.Filter{Kind: "link-state"})
	if len(ups) == 0 {
		t.Error("no link-state events")
	}
	st, ok := c.Log.StateAt(3600)
	if !ok {
		t.Fatal("no state at t=1h")
	}
	intents := 0
	for _, l := range st.Links {
		if l.Intent != "" {
			intents++
		}
	}
	if intents == 0 || len(st.Routes) == 0 {
		t.Errorf("state has %d links with intents and %d routes, want some of each", intents, len(st.Routes))
	}
}

func TestIntentsTrackFabric(t *testing.T) {
	c := New(fastConfig(5))
	c.RunHours(2)
	// Every installed link must have an established intent.
	for _, l := range c.Fabric.UpLinks() {
		li, ok := c.Intents.ActiveLink(l.ID)
		if !ok {
			t.Errorf("installed link %v has no intent", l.ID)
			continue
		}
		if li.State.String() != "established" {
			t.Errorf("installed link %v intent state %v", l.ID, li.State)
		}
	}
	// History must contain terminated intents with reasons.
	for _, li := range c.Intents.History() {
		if li.EndedAt == 0 {
			t.Error("history entry without end time")
		}
	}
}

func TestPredictiveVsReactiveAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	run := func(lead float64) float64 {
		cfg := fastConfig(7)
		cfg.PredictiveLeadS = lead
		c := New(cfg)
		c.RunHours(6)
		w := c.LinkLife.EndsB2G.Get("withdrawn") + c.LinkLife.EndsB2B.Get("withdrawn")
		total := c.LinkLife.EndsB2G.Total() + c.LinkLife.EndsB2B.Total()
		if total == 0 {
			return math.NaN()
		}
		return float64(w) / float64(total)
	}
	predictive := run(180)
	reactive := run(0)
	t.Logf("withdrawn fraction: predictive=%.2f reactive=%.2f", predictive, reactive)
	// Both modes run; the predictive mode should not produce *fewer*
	// planned withdrawals than reactive.
	if !math.IsNaN(predictive) && !math.IsNaN(reactive) && predictive+0.15 < reactive {
		t.Errorf("predictive mode should withdraw at least as often as reactive (%v vs %v)", predictive, reactive)
	}
}

func TestSatcomUsedWhenInBandAbsent(t *testing.T) {
	c := New(fastConfig(8))
	c.RunHours(1)
	if c.Sat.Sent == 0 {
		t.Error("bootstrap must use satcom (no in-band before first links)")
	}
}

func TestNodeRecyclingHandled(t *testing.T) {
	cfg := fastConfig(9)
	c := New(cfg)
	c.FMS.RecycleRadiusM = 120e3 // force recycling
	c.RunHours(6)
	leaves := c.Log.Query(explain.Filter{Kind: "node-leave"})
	if len(leaves) == 0 {
		t.Skip("no recycling happened in this seed/window")
	}
	// The network must still be functional.
	if len(c.Fabric.UpLinks()) == 0 {
		t.Error("network dead after recycling")
	}
	if len(c.Fleet.Balloons) != cfg.FleetSize {
		t.Errorf("fleet size drifted: %d", len(c.Fleet.Balloons))
	}
}

func TestTOD(t *testing.T) {
	cfg := fastConfig(1)
	cfg.StartTODHours = 9
	c := New(cfg)
	if got := c.TOD(); math.Abs(got-9) > 0.01 {
		t.Errorf("TOD at start = %v, want 9", got)
	}
	c.RunHours(20)
	if got := c.TOD(); math.Abs(got-5) > 0.01 {
		t.Errorf("TOD after 20 h = %v, want 5", got)
	}
}

func TestOperationalNodeCount(t *testing.T) {
	c := New(fastConfig(1))
	c.RunHours(1)
	var ops []*platform.Node
	for _, n := range c.Fleet.Nodes() {
		if n.Operational() {
			ops = append(ops, n)
		}
	}
	// 3 ground stations + 8 balloons (power disabled).
	if len(ops) != 11 {
		t.Errorf("operational nodes = %d, want 11", len(ops))
	}
	grounds := 0
	for _, n := range ops {
		if n.Kind == platform.KindGround {
			grounds++
		}
	}
	if grounds != 3 {
		t.Errorf("ground stations = %d", grounds)
	}
}

func BenchmarkControllerHour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := New(fastConfig(int64(i)))
		c.RunHours(1)
	}
}

// TestPathIntegratedOncePerWorldStep is the radio path memo's evidence
// from a real run: links are checked every CheckInterval (10 s) while
// the world moves every 60 s, so about one check in six integrates the
// path, plus the one at each acquisition. The gauges must read the
// counters.
func TestPathIntegratedOncePerWorldStep(t *testing.T) {
	c := New(detConfig(11))
	c.RunHours(2)
	f := c.Fabric
	established := 0
	for _, l := range append(f.History(), f.UpLinks()...) {
		if l.EstablishedAt > 0 {
			established++
		}
	}
	t.Logf("%d link checks, %d path integrations (%.3f), %d links established",
		f.LinkChecks, f.PathIntegrations, float64(f.PathIntegrations)/float64(f.LinkChecks), established)
	if f.LinkChecks < 1000 {
		t.Fatalf("only %d link checks in 2 h: the run formed no mesh", f.LinkChecks)
	}
	if f.PathIntegrations > f.LinkChecks/5+established {
		t.Errorf("%d path integrations for %d checks and %d established links; want at most checks/5 + established",
			f.PathIntegrations, f.LinkChecks, established)
	}
	got := map[string]float64{}
	for _, m := range c.ObsSnapshot().Metrics {
		got[m.Name] = m.Value
	}
	if got["fabric.link_checks"] != float64(f.LinkChecks) || got["fabric.path_integrations"] != float64(f.PathIntegrations) {
		t.Errorf("gauges read %v checks, %v integrations; counters are %d, %d",
			got["fabric.link_checks"], got["fabric.path_integrations"], f.LinkChecks, f.PathIntegrations)
	}
}
