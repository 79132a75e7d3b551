package linkeval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"minkowski/internal/geo"
	"minkowski/internal/platform"
)

// gradientRain is a deterministic, spatially varying weather estimate:
// attenuation differs along a path depending on where it runs, which
// exercises the direction-dependent sample integration the incremental
// pipeline must reproduce bit-for-bit. phase shifts the whole pattern,
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
// balloons scattered over an area wider than MaxRangeM, so the cell
// index has real pruning to do and real neighbors to keep.
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
		t.Fatalf("%s: incremental %d candidates vs brute-force %d", label, len(inc), len(brute))
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
// changes, and same-instant repeat calls, the incremental pipeline's
// candidate graph is bit-identical to the brute-force reference.
func TestIncrementalMatchesBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nodes, xs := randomFleet(rng, 24)
			src := &gradientRain{}
			cfgInc := DefaultConfig()
			cfgInc.Parallelism = 4
			cfgBrute := cfgInc
			cfgBrute.Incremental = false
			inc := New(cfgInc, src, nil)
			brute := New(cfgBrute, src, nil)
			for step := 0; step < 6; step++ {
				label := fmt.Sprintf("step%d", step)
				gb := brute.CandidateGraph(xs, 0)
				gi := inc.CandidateGraph(xs, 0)
				compareGraphs(t, label, gi, gb)
				// Same instant again on the reused scratch: must still
				// match bitwise.
				gi2 := inc.CandidateGraph(xs, 0)
				compareGraphs(t, label+"-repeat", gi2, gb)
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
			// Horizon with a drifting predictor: per-lead graphs must
			// also agree.
			pred := func(n *platform.Node, lead float64) geo.LLA {
				p := n.Position()
				if n.Kind == platform.KindBalloon {
					alt := p.Alt
					p = geo.Offset(p, geo.Deg(90), lead*8)
					p.Alt = alt
				}
				return p
			}
			inc.Predict = pred
			brute.Predict = pred
			leads := []float64{0, 180, 360}
			hi := inc.Horizon(xs, leads)
			hb := brute.Horizon(xs, leads)
			for i := range leads {
				compareGraphs(t, fmt.Sprintf("horizon-lead%d", int(leads[i])), hi[i], hb[i])
			}
		})
	}
}

// TestConsecutiveGraphsShareNoReports: two graphs of the same instant
// are equal but hand out distinct reports, so a consumer editing one
// graph cannot change another.
func TestConsecutiveGraphsShareNoReports(t *testing.T) {
	e := New(DefaultConfig(), clearSky{}, nil)
	xs := testFleetXcvrs()
	g1 := e.CandidateGraph(xs, 0)
	g2 := e.CandidateGraph(xs, 0)
	if len(g1) == 0 {
		t.Fatal("no candidates in the baseline graph")
	}
	compareGraphs(t, "repeat", g2, g1)
	for i := range g1 {
		if g1[i] == g2[i] {
			t.Fatalf("report %v is the same object in both graphs", g1[i].ID)
		}
	}
}

// TestSpatialPruningStats: a fleet spread far beyond MaxRangeM must
// show index pruning in Stats while keeping the near candidates.
func TestSpatialPruningStats(t *testing.T) {
	// Two clusters ~2200 km apart: pairs within a cluster are in
	// range; cross-cluster pairs must be pruned by the index.
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
	s := e.Stats()
	if s.PairsPruned == 0 {
		t.Errorf("cross-cluster pairs should be index-pruned: %+v", s)
	}
	if s.PairsEnumerated+s.PairsPruned != s.PairsPossible {
		t.Errorf("stats must account for every possible pair: %+v", s)
	}
	// And the graph must still match brute force exactly.
	cfg := DefaultConfig()
	cfg.Incremental = false
	gb := New(cfg, clearSky{}, nil).CandidateGraph(xs, 0)
	compareGraphs(t, "two-cluster", g, gb)
}
