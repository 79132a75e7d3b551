package solver

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"testing"

	"minkowski/internal/obs"
)

// obsBenchHarness mimics the controller's per-cycle instrumentation
// (internal/core solveCycle) around a solve: a root span with
// attrs, a solve child span, counter recording, and a flight-recorder
// metric line. Benchmarked in three regimes:
//
//   - off:      no obs objects at all — the pre-obs baseline,
//   - disabled: obs constructed with Enabled=false — the production
//     default path cost when tracing is off (registry counters still
//     count; span/recorder calls are nil no-ops),
//   - enabled:  tracer + flight recorder fully on.
//
// DESIGN.md §11 budgets the deltas; cmd/benchguard gates the ratios.
type obsBenchHarness struct {
	o          *obs.Obs
	dispatches obs.Counter
	solveRuns  obs.Counter
	clock      float64
}

func newObsBenchHarness(enabled bool) *obsBenchHarness {
	h := &obsBenchHarness{}
	h.o = obs.New(obs.Config{Enabled: enabled}, func() float64 { return h.clock })
	h.dispatches = h.o.Reg.Counter("bench.dispatches")
	h.solveRuns = h.o.Reg.Counter("bench.solve_runs")
	return h
}

// cycle runs one instrumented solve, advancing the fake sim
// clock the way the controller's solve interval does.
func (h *obsBenchHarness) cycle(s *Solver, in Input, n int) *Plan {
	h.clock += 120
	sp := h.o.Tracer.StartCycle("solve-cycle")
	sp.SetAttrInt("cycle", n)
	so := sp.Child("solve")
	p := s.Solve(in)
	h.solveRuns.Inc()
	so.SetAttrInt("links", len(p.Links))
	so.SetAttrInt("routes", len(p.Routes))
	so.SetAttrInt("unsatisfied", len(p.Unsatisfied))
	so.SetAttrFloat("utility", p.Utility)
	so.EndSpan()
	h.dispatches.Add(uint64(len(p.Links)))
	h.o.Rec.Metric("solve-cycle", "links="+strconv.Itoa(len(p.Links))+
		" routes="+strconv.Itoa(len(p.Routes)))
	sp.EndSpan()
	return p
}

// BenchmarkObsOverhead measures the observability tax on the
// production solve regime (BenchmarkSolveCycle's steady state).
func BenchmarkObsOverhead(b *testing.B) {
	for scale := 1; scale <= 2; scale++ {
		ins := benchInputs(scale)
		b.Run(fmt.Sprintf("off/scale%d", scale), func(b *testing.B) {
			s := New(DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Solve(ins[i%len(ins)])
			}
		})
		b.Run(fmt.Sprintf("disabled/scale%d", scale), func(b *testing.B) {
			s := New(DefaultConfig())
			h := newObsBenchHarness(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = h.cycle(s, ins[i%len(ins)], i)
			}
		})
		b.Run(fmt.Sprintf("enabled/scale%d", scale), func(b *testing.B) {
			s := New(DefaultConfig())
			h := newObsBenchHarness(true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = h.cycle(s, ins[i%len(ins)], i)
			}
		})
	}
}

// obsBenchRecord is one scale's row in BENCH_obs.json. The *_speedup_*
// fields are the machine-independent ratios cmd/benchguard gates: the
// instrumented regimes' throughput relative to the uninstrumented
// solve (1.0 = free; the budget in DESIGN.md §11 allows a few percent
// for enabled).
type obsBenchRecord struct {
	OffNsOp         float64 `json:"off_ns_op"`
	DisabledNsOp    float64 `json:"disabled_ns_op"`
	EnabledNsOp     float64 `json:"enabled_ns_op"`
	DisabledSpeedup float64 `json:"disabled_speedup_vs_off"`
	EnabledSpeedup  float64 `json:"enabled_speedup_vs_off"`
}

// TestWriteObsBenchJSON measures the obs-overhead suite and writes
// the summary the CI regression guard consumes. Gated behind
// BENCH_OBS_JSON so ordinary test runs stay fast:
//
//	BENCH_OBS_JSON=BENCH_obs.json go test -run TestWriteObsBenchJSON ./internal/solver/
func TestWriteObsBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_OBS_JSON")
	if out == "" {
		t.Skip("set BENCH_OBS_JSON=<path> to measure and write the obs overhead summary")
	}
	summary := map[string]obsBenchRecord{}
	for scale := 1; scale <= 2; scale++ {
		ins := benchInputs(scale)
		measure := func(run func(b *testing.B)) float64 {
			return float64(testing.Benchmark(run).NsPerOp())
		}
		off := measure(func(b *testing.B) {
			s := New(DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Solve(ins[i%len(ins)])
			}
		})
		disabled := measure(func(b *testing.B) {
			s := New(DefaultConfig())
			h := newObsBenchHarness(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = h.cycle(s, ins[i%len(ins)], i)
			}
		})
		enabled := measure(func(b *testing.B) {
			s := New(DefaultConfig())
			h := newObsBenchHarness(true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = h.cycle(s, ins[i%len(ins)], i)
			}
		})
		rec := obsBenchRecord{OffNsOp: off, DisabledNsOp: disabled, EnabledNsOp: enabled}
		if disabled > 0 {
			rec.DisabledSpeedup = off / disabled
		}
		if enabled > 0 {
			rec.EnabledSpeedup = off / enabled
		}
		summary[fmt.Sprintf("scale%d", scale)] = rec
		t.Logf("scale%d: off %.3fms disabled %.3fms (%.3fx) enabled %.3fms (%.3fx)",
			scale, off/1e6, disabled/1e6, rec.DisabledSpeedup, enabled/1e6, rec.EnabledSpeedup)
	}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
