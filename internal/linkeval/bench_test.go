package linkeval

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"minkowski/internal/geo"
	"minkowski/internal/itu"
	"minkowski/internal/platform"
	"minkowski/internal/weather"
)

// benchFleet builds the deterministic benchmark fleet at a fidelity
// scale: 30·scale balloons spread over an area wider than MaxRangeM
// (so the range gate rejects some platform pairs and keeps dense
// neighborhoods), plus three gateway sites.
func benchFleet(scale int) []*platform.Transceiver {
	rng := rand.New(rand.NewSource(1))
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
	for i := 0; i < 30*scale; i++ {
		lat := -6 + 12*rng.Float64()
		lon := 30 + 14*rng.Float64()
		n := mkBalloon(fmt.Sprintf("hbal-%03d", i), lat, lon, 17000+3000*rng.Float64())
		xs = append(xs, n.Xcvrs...)
	}
	return xs
}

// benchRegimes are the two ways to build a graph that the benchmarks
// compare: the test-only oracle and the production pipeline.
var benchRegimes = []struct {
	name  string
	graph func(*Evaluator, []*platform.Transceiver, float64) []*Report
}{
	{"bruteforce", bruteForceGraph},
	{"incremental", (*Evaluator).CandidateGraph},
}

// BenchmarkCandidateGraph compares the oracle's O(N²) from-scratch
// sweep with the pipeline's shared pair geometry at each fidelity
// scale, both on one goroutine.
func BenchmarkCandidateGraph(b *testing.B) {
	for _, scale := range []int{1, 3} {
		xs := benchFleet(scale)
		for _, r := range benchRegimes {
			b.Run(fmt.Sprintf("%s/scale%d", r.name, scale), func(b *testing.B) {
				e := New(DefaultConfig(), &gradientRain{}, nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = r.graph(e, xs, 0)
				}
				if s := e.Stats(); s.Graphs > 0 {
					b.ReportMetric(float64(s.PairsEnumerated)/float64(s.Graphs), "pairs/op")
				}
			})
		}
	}
}

// BenchmarkPathAttenuation compares one 16-sample path integration on
// the exact ITU closed forms against the memoized LUT path the
// evaluator uses.
func BenchmarkPathAttenuation(b *testing.B) {
	src := &gradientRain{}
	a := geo.LLADeg(-1.0, 36.5, 18000)
	c := geo.LLADeg(-0.2, 38.0, 1700)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exactPathAttenuation(src, 72, a, c)
		}
	})
	b.Run("memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			weather.EstimatePathAttenuation(src, 72, a, c)
		}
	})
}

// exactPathAttenuation re-derives the full spectroscopy per sample —
// what EstimatePathAttenuation did before the LUT — on the same chord
// samples.
func exactPathAttenuation(src weather.Source, fGHz float64, a, b geo.LLA) float64 {
	const samples = 16
	seg := geo.NewSegment(a, b)
	stepKm := seg.Length() / float64(samples) / 1000
	total := 0.0
	for i := 0; i <= samples; i++ {
		p := seg.Point(float64(i) / float64(samples)).Geodetic().LLA()
		pr, tk, rho := itu.AtmosphereAt(p.Alt, weather.SeaLevelVapourDensity)
		spec := itu.GaseousSpecific(fGHz, pr, tk, rho)
		if p.Alt < weather.MoistureCeilingM {
			if rate, ok := src.EstimateRain(p); ok && rate > 0 {
				spec += itu.RainSpecific(fGHz, rate, itu.Horizontal)
				spec += itu.CloudSpecific(fGHz, tk, 0.5*math.Min(rate/20, 1.5))
			}
		}
		total += spec * stepKm
	}
	return total
}

// benchRecord is one scale's row in BENCH_linkeval.json.
type benchRecord struct {
	BruteNsOp       float64 `json:"brute_ns_op"`
	IncrementalNsOp float64 `json:"incremental_ns_op"`
	PairsPerSec     float64 `json:"incremental_pairs_per_s"`
	Speedup         float64 `json:"speedup_vs_brute"`
}

// TestWriteBenchJSON measures the benchmark suite and writes the
// machine-readable summary the CI regression guard consumes
// (cmd/benchguard). Both regimes run on one goroutine, so
// speedup_vs_brute compares algorithms. Gated behind
// BENCH_LINKEVAL_JSON so ordinary test runs stay fast:
//
//	BENCH_LINKEVAL_JSON=BENCH_linkeval.json go test -run TestWriteBenchJSON ./internal/linkeval/
func TestWriteBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_LINKEVAL_JSON")
	if out == "" {
		t.Skip("set BENCH_LINKEVAL_JSON=<path> to measure and write the benchmark summary")
	}
	summary := map[string]benchRecord{}
	for _, scale := range []int{1, 3} {
		xs := benchFleet(scale)
		e := New(DefaultConfig(), &gradientRain{}, nil)
		nsOp := map[string]float64{}
		for _, r := range benchRegimes {
			nsOp[r.name] = float64(testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = r.graph(e, xs, 0)
				}
			}).NsPerOp())
		}
		rec := benchRecord{BruteNsOp: nsOp["bruteforce"], IncrementalNsOp: nsOp["incremental"]}
		if rec.IncrementalNsOp > 0 {
			rec.Speedup = rec.BruteNsOp / rec.IncrementalNsOp
			st := e.Stats()
			rec.PairsPerSec = float64(st.PairsEnumerated/st.Graphs) / (rec.IncrementalNsOp / 1e9)
		}
		summary[fmt.Sprintf("scale%d", scale)] = rec
		t.Logf("scale%d: brute %.2fms incremental %.2fms speedup %.1fx",
			scale, rec.BruteNsOp/1e6, rec.IncrementalNsOp/1e6, rec.Speedup)
	}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
