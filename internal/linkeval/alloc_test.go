//go:build !race

package linkeval

import (
	"math/rand"
	"testing"

	"minkowski/internal/itu"
	"minkowski/internal/platform"
	"minkowski/internal/weather"
)

// TestCandidateGraphSteadyStateAllocs: once one graph has sized the
// evaluator's storage, a graph allocates nothing. The fleet has ground
// stations, so the pointing memo sees blocked mounts, and the weather
// is the controller's fusion of gauges, forecast and climatology over
// drizzle at the stations, stepped before every graph, so the
// forecast's advection memo is recomputed on each one.
func TestCandidateGraphSteadyStateAllocs(t *testing.T) {
	_, xs := randomFleet(rand.New(rand.NewSource(9)), 24)
	wcfg := weather.DefaultConfig()
	wcfg.CellSpawnPerHour = 0
	wx := weather.NewField(wcfg)
	fused := &weather.Fused{MaxAge: 1800}
	for i, x := range xs {
		if x.Node.Kind == platform.KindGround && x == x.Node.Xcvrs[0] {
			wx.InjectCell(x.Node.FixedPos, 8e3, 0.3, 8000, 1e6)
			g := weather.NewGauge(x.Node.FixedPos, wx, int64(i))
			g.Sample()
			fused.Sources = append(fused.Sources, g)
		}
	}
	fused.Sources = append(fused.Sources,
		weather.Issue(wx, weather.DefaultForecastConfig(), 9),
		&weather.Climatology{Model: itu.DefaultRegionalModel(), Season: wcfg.Season})
	if len(fused.Sources) != 5 {
		t.Fatalf("precondition: 3 gauges, a forecast and climatology, have %d sources", len(fused.Sources))
	}
	e := New(DefaultConfig(), fused, nil)
	b2g := 0
	for _, r := range e.CandidateGraph(xs, 0) {
		if r.B2G {
			b2g++
		}
	}
	if b2g == 0 {
		t.Fatal("no ground candidates")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		wx.Step(60)
		e.CandidateGraph(xs, 0)
	}); allocs != 0 {
		t.Errorf("a steady-state graph allocates %.0f times, want 0", allocs)
	}
}

// TestDiffDoesNotAllocate: the per-sample graph delta is one merge
// over two ID lists the caller already holds.
func TestDiffDoesNotAllocate(t *testing.T) {
	_, xs := randomFleet(rand.New(rand.NewSource(9)), 24)
	e := New(DefaultConfig(), &gradientRain{}, nil)
	a := AppendIDs(nil, e.CandidateGraph(xs, 0))
	b := a[1:]
	var d GraphDelta
	if allocs := testing.AllocsPerRun(100, func() { d = Diff(a, b) }); allocs != 0 {
		t.Errorf("Diff allocates %.0f times per call, want 0", allocs)
	}
	if d.Removed != 1 || d.Common != len(b) {
		t.Errorf("delta = %+v, want 1 removed and %d common", d, len(b))
	}
}
