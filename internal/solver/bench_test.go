package solver

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"minkowski/internal/linkeval"
	"minkowski/internal/radio"
)

// benchCycles is the length of the precomputed drift ring each
// steady-state benchmark iterates over. Sixteen cycles keeps the
// ring-wrap discontinuity (cycle 15 → cycle 0 is a large aggregate
// drift) well amortized.
const benchCycles = 16

// benchInputs builds a ring of benchCycles solve inputs from a
// drifting eqWorld at the given fidelity scale (fleet grows with
// scale). Candidates are deep-copied so the ring is a frozen snapshot
// (the evaluator may reuse report storage across cycles), and the
// Existing chain is produced by reference solves during setup — every
// regime under measurement therefore solves byte-identical inputs.
func benchInputs(scale int) []Input {
	w := newEqWorld(8+10*scale, 0xB47*uint64(scale)|1)
	ref := New(DefaultConfig())
	existing := map[radio.LinkID]bool{}
	ins := make([]Input, 0, benchCycles)
	for i := 0; i < benchCycles; i++ {
		in := w.input(existing)
		cp := make([]*linkeval.Report, len(in.Candidates))
		for j, r := range in.Candidates {
			c := *r
			cp[j] = &c
		}
		in.Candidates = cp
		ins = append(ins, in)
		existing = existingFrom(ref.SolveReference(in))
		w.drift()
	}
	return ins
}

// BenchmarkSolve is the single-shot solve at each fidelity scale:
// the retained seed implementation (reference) against the engine.
func BenchmarkSolve(b *testing.B) {
	for scale := 1; scale <= 3; scale++ {
		in := benchInputs(scale)[0]
		b.Run(fmt.Sprintf("reference/scale%d", scale), func(b *testing.B) {
			s := New(DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.SolveReference(in)
			}
		})
		b.Run(fmt.Sprintf("engine/scale%d", scale), func(b *testing.B) {
			s := New(DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Solve(in)
			}
		})
	}
}

// BenchmarkSolveCycle is the controller's per-interval call: a
// steady-state re-solve over a drifting scenario, one Solver (and its
// scratch arenas) carried cycle to cycle.
func BenchmarkSolveCycle(b *testing.B) {
	for scale := 1; scale <= 3; scale++ {
		ins := benchInputs(scale)
		b.Run(fmt.Sprintf("reference/scale%d", scale), func(b *testing.B) {
			s := New(DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.SolveReference(ins[i%len(ins)])
			}
		})
		b.Run(fmt.Sprintf("cold/scale%d", scale), func(b *testing.B) {
			s := New(DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Solve(ins[i%len(ins)])
			}
		})
	}
}

// solverBenchRecord is one scale's row in BENCH_solver.json.
type solverBenchRecord struct {
	ReferenceNsOp float64 `json:"reference_ns_op"`
	ColdNsOp      float64 `json:"cold_ns_op"`
	ColdSpeedup   float64 `json:"cold_speedup_vs_reference"`
}

// TestWriteBenchJSON measures the solve-cycle suite and writes the
// machine-readable summary the CI regression guard consumes
// (cmd/benchguard). Gated behind BENCH_SOLVER_JSON so ordinary test
// runs stay fast:
//
//	BENCH_SOLVER_JSON=BENCH_solver.json go test -run TestWriteBenchJSON ./internal/solver/
func TestWriteBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_SOLVER_JSON")
	if out == "" {
		t.Skip("set BENCH_SOLVER_JSON=<path> to measure and write the benchmark summary")
	}
	summary := map[string]solverBenchRecord{}
	for scale := 1; scale <= 3; scale++ {
		ins := benchInputs(scale)
		ref := testing.Benchmark(func(b *testing.B) {
			s := New(DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.SolveReference(ins[i%len(ins)])
			}
		})
		cold := testing.Benchmark(func(b *testing.B) {
			s := New(DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Solve(ins[i%len(ins)])
			}
		})
		rec := solverBenchRecord{
			ReferenceNsOp: float64(ref.NsPerOp()),
			ColdNsOp:      float64(cold.NsPerOp()),
		}
		if rec.ColdNsOp > 0 {
			rec.ColdSpeedup = rec.ReferenceNsOp / rec.ColdNsOp
		}
		summary[fmt.Sprintf("scale%d", scale)] = rec
		t.Logf("scale%d: reference %.3fms cold %.3fms cold-speedup %.1fx",
			scale, rec.ReferenceNsOp/1e6, rec.ColdNsOp/1e6, rec.ColdSpeedup)
	}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
