package minkowski

// One benchmark per figure, table and ablation of the paper's
// evaluation (see DESIGN.md §3), each a sub-benchmark of
// BenchmarkFigures named by its experiments table ID. Each runs its
// experiment at Scale 1 on a world of its own and logs the rows the
// paper reports; run
//
//	go test -bench=Figures -benchmem
//
// for the full sweep (-bench=Figures/fig08 for one), or
// `go run ./cmd/figures -fig all -scale 3` for the higher-fidelity
// variants recorded in EXPERIMENTS.md.

import (
	"testing"

	"minkowski/internal/experiments"
)

// BenchmarkFigures runs each table entry b.N times (the harness keeps
// N=1 for these multi-second workloads) and logs the last result.
func BenchmarkFigures(b *testing.B) {
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			var res *experiments.Result
			for i := 0; i < b.N; i++ {
				res = experiments.Run(experiments.Options{Seed: int64(i + 1), Scale: 1}, id)[0]
			}
			if res != nil {
				b.Log("\n" + res.String())
			}
		})
	}
}
