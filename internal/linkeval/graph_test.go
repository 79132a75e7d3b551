package linkeval

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"minkowski/internal/geo"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
)

func idLess(a, b radio.LinkID) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// bruteForceGraph is the oracle the pipeline is held to bit for bit:
// the paper's "all pairs of transceivers", each cross-platform pair
// evaluated from scratch in slice order on one goroutine, sorted by ID.
func bruteForceGraph(e *Evaluator, xcvrs []*platform.Transceiver, lead float64) []*Report {
	var out []*Report
	for i, xa := range xcvrs {
		for _, xb := range xcvrs[i+1:] {
			if r := e.EvaluatePair(xa, xb, lead); r != nil {
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return idLess(out[i].ID, out[j].ID) })
	return out
}

// atWidths runs fn as a subtest at fan-out widths 1, 2 and 8, in that
// order. The width is GOMAXPROCS and nothing else, so the subtest sets
// it and restores it on cleanup; no test in this package calls
// t.Parallel, so the process-wide setting cannot leak into another.
func atWidths(t *testing.T, fn func(t *testing.T)) {
	for _, n := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(n)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			fn(t)
		})
	}
}

// gradientRain is a deterministic, spatially varying weather estimate:
// attenuation differs along a path depending on where it runs, which
// exercises the direction-dependent sample integration the pipeline's
// shared pair geometry must reproduce bit-for-bit. phase shifts the whole pattern,
// standing in for weather evolution.
type gradientRain struct{ phase float64 }

func (g *gradientRain) EstimateRain(p geo.LLA) (float64, bool) {
	lat, lon := geo.ToDeg(p.Lat), geo.ToDeg(p.Lon)
	r := 12*math.Sin(lat*3+g.phase) + 10*math.Cos(lon*2-g.phase)
	if r < 0 {
		r = 0
	}
	return r, true
}
func (g *gradientRain) AgeSeconds() float64 { return 0 }
func (g *gradientRain) Name() string        { return "gradient" }

// randomFleet builds a reproducible fleet: ground stations plus
// balloons scattered over an area wider than MaxRangeM, so the range
// gate has both pairs to reject and neighbors to keep.
func randomFleet(rng *rand.Rand, nBalloons int) ([]*platform.Node, []*platform.Transceiver) {
	var nodes []*platform.Node
	var xs []*platform.Transceiver
	gsPos := []geo.LLA{
		geo.LLADeg(-1.32, 36.83, 1700),
		geo.LLADeg(-0.09, 34.77, 1200),
		geo.LLADeg(-0.28, 36.07, 1850),
	}
	for i, p := range gsPos {
		gs := platform.NewGroundStation(fmt.Sprintf("gs-%02d", i), p, nil)
		xs = append(xs, gs.Xcvrs...)
	}
	for i := 0; i < nBalloons; i++ {
		lat := -6 + 12*rng.Float64()
		lon := 30 + 14*rng.Float64()
		alt := 17000 + 3000*rng.Float64()
		n := mkBalloon(fmt.Sprintf("hbal-%03d", i), lat, lon, alt)
		nodes = append(nodes, n)
		xs = append(xs, n.Xcvrs...)
	}
	return nodes, xs
}

func compareGraphs(t *testing.T, label string, inc, brute []*Report) {
	t.Helper()
	if len(inc) != len(brute) {
		t.Fatalf("%s: pipeline %d candidates vs brute-force %d", label, len(inc), len(brute))
	}
	for i := range inc {
		a, b := inc[i], brute[i]
		if a.ID != b.ID {
			t.Fatalf("%s[%d]: ID %v vs %v (ordering broken)", label, i, a.ID, b.ID)
		}
		if a.XA != b.XA || a.XB != b.XB {
			t.Fatalf("%s[%d] %v: transceiver assignment differs", label, i, a.ID)
		}
		if *a != *b {
			t.Fatalf("%s[%d] %v: reports differ bitwise:\n inc   %+v\n brute %+v", label, i, a.ID, *a, *b)
		}
	}
}

// TestIncrementalMatchesBruteForce is the central equivalence
// property: across randomized fleets, wind-driven drift, weather
// changes, and same-instant repeat calls, the pipeline's candidate
// graph is bit-identical to the brute-force oracle at every fan-out
// width.
func TestIncrementalMatchesBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			atWidths(t, func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				nodes, xs := randomFleet(rng, 24)
				src := &gradientRain{}
				ev := New(DefaultConfig(), src, nil)
				for step := 0; step < 6; step++ {
					label := fmt.Sprintf("step%d", step)
					gb := bruteForceGraph(ev, xs, 0)
					compareGraphs(t, label, ev.CandidateGraph(xs, 0), gb)
					// Same instant again on the reused scratch: must still
					// match bitwise.
					compareGraphs(t, label+"-repeat", ev.CandidateGraph(xs, 0), gb)
					if step%2 == 0 {
						// Wind: drift every balloon a few km in a random
						// direction.
						for _, n := range nodes {
							alt := n.Balloon.Pos.Alt
							n.Balloon.Pos = geo.Offset(n.Balloon.Pos, geo.Deg(rng.Float64()*360), 2000+6000*rng.Float64())
							n.Balloon.Pos.Alt = alt
						}
					} else {
						// Weather evolves: shift the pattern.
						src.phase += 0.7
					}
				}
				// A drifting predictor: graphs at future leads must also
				// agree.
				ev.Predict = func(n *platform.Node, lead float64) geo.LLA {
					p := n.Position()
					if n.Kind == platform.KindBalloon {
						alt := p.Alt
						p = geo.Offset(p, geo.Deg(90), lead*8)
						p.Alt = alt
					}
					return p
				}
				for _, lead := range []float64{0, 180, 360} {
					compareGraphs(t, fmt.Sprintf("lead%d", int(lead)), ev.CandidateGraph(xs, lead), bruteForceGraph(ev, xs, lead))
				}
			})
		})
	}
}

// copyGraph takes a graph by value, as a holder that outlives the
// evaluator's next call must.
func copyGraph(g []*Report) []*Report {
	vals := make([]Report, len(g))
	out := make([]*Report, len(g))
	for i, r := range g {
		vals[i] = *r
		out[i] = &vals[i]
	}
	return out
}

// TestGraphValidUntilNextCall pins the ownership rule: a graph lives in
// the evaluator's storage until its next call, so a copy taken before
// that call still equals the oracle afterwards, and the next graph —
// written over the first, at another lead — equals the oracle too.
func TestGraphValidUntilNextCall(t *testing.T) {
	e := New(DefaultConfig(), clearSky{}, func(n *platform.Node, lead float64) geo.LLA {
		p := n.Position()
		if n.Kind == platform.KindBalloon {
			alt := p.Alt
			p = geo.Offset(p, geo.Deg(90), lead*10)
			p.Alt = alt
		}
		return p
	})
	xs := testFleetXcvrs()
	want1 := bruteForceGraph(e, xs, 0)
	if len(want1) == 0 {
		t.Fatal("no candidates in the baseline graph")
	}
	g1 := e.CandidateGraph(xs, 0)
	compareGraphs(t, "first", g1, want1)
	kept := copyGraph(g1)
	g2 := e.CandidateGraph(xs, 3600)
	compareGraphs(t, "second", g2, bruteForceGraph(e, xs, 3600))
	compareGraphs(t, "copy of first", kept, want1)
	if g1[0] != g2[0] {
		t.Errorf("the second graph does not reuse the first's storage (%p, %p)", g1[0], g2[0])
	}
}

// TestTwoClusterFleetRangeGated: on a fleet spread far beyond
// MaxRangeM every pair is still enumerated, the cross-cluster ones fall
// to the range gate one platform pair at a time, and the graph equals
// the oracle's.
func TestTwoClusterFleetRangeGated(t *testing.T) {
	// Two clusters of four balloons ~2200 km apart: 16 cross-cluster
	// platform pairs × 9 transceiver pairs are out of range, the 12
	// in-cluster platform pairs × 9 are evaluated.
	var xs []*platform.Transceiver
	for i := 0; i < 4; i++ {
		n := mkBalloon(fmt.Sprintf("hbal-a%02d", i), -1+0.3*float64(i), 36.0, 18000)
		xs = append(xs, n.Xcvrs...)
	}
	for i := 0; i < 4; i++ {
		n := mkBalloon(fmt.Sprintf("hbal-b%02d", i), -1+0.3*float64(i), 56.0, 18000)
		xs = append(xs, n.Xcvrs...)
	}
	e := New(DefaultConfig(), clearSky{}, nil)
	g := e.CandidateGraph(xs, 0)
	if len(g) == 0 {
		t.Fatal("in-cluster candidates expected")
	}
	if s, want := e.Stats(), (Stats{Graphs: 1, PairsEnumerated: 252, RangePruned: 144, ReEvals: 108}); s != want {
		t.Errorf("stats %+v, want %+v", s, want)
	}
	compareGraphs(t, "two-cluster", g, bruteForceGraph(e, xs, 0))
}

// TestShardedSweepWorkerInvariance pins the fan-out's contract: the
// sharded candidate sweep emits the oracle's graph byte for byte at any
// width, including across repeat calls on one evaluator whose scratch
// is reused while the width changes under it.
func TestShardedSweepWorkerInvariance(t *testing.T) {
	src := &gradientRain{}
	ev := New(DefaultConfig(), src, nil)
	atWidths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		nodes, xs := randomFleet(rng, 22)
		for step := 0; step < 4; step++ {
			compareGraphs(t, fmt.Sprintf("step%d", step), ev.CandidateGraph(xs, 0), bruteForceGraph(ev, xs, 0))
			for _, n := range nodes {
				alt := n.Balloon.Pos.Alt
				n.Balloon.Pos = geo.Offset(n.Balloon.Pos, geo.Deg(rng.Float64()*360), 1000+4000*rng.Float64())
				n.Balloon.Pos.Alt = alt
			}
			src.phase += 0.5
		}
	})
}
