package minkowski

// One benchmark per figure/table of the paper's evaluation (see
// DESIGN.md §3). Each bench runs the corresponding experiment at
// Scale 1 and reports domain metrics alongside ns/op. The printed
// rows are the same series the paper reports; run
//
//	go test -bench=. -benchmem
//
// for the full sweep, or `go run ./cmd/figures -fig all -scale 3` for
// the higher-fidelity variants recorded in EXPERIMENTS.md.

import (
	"testing"

	"minkowski/internal/experiments"
)

// runExperiment standardizes benchmark execution: the experiment runs
// b.N times (the harness keeps N=1 for these multi-second workloads)
// and the last result is printed once.
func runExperiment(b *testing.B, fn func(experiments.Options) *experiments.Result) {
	b.Helper()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = fn(experiments.Options{Seed: int64(i + 1), Scale: 1})
	}
	if res != nil {
		b.Log("\n" + res.String())
	}
}

// BenchmarkFig04CandidateGraphChurn regenerates Fig. 4: hour-to-hour
// candidate-graph deltas.
func BenchmarkFig04CandidateGraphChurn(b *testing.B) {
	runExperiment(b, experiments.Fig04)
}

// BenchmarkFig06Reachability regenerates Fig. 6: layered node-level
// availability.
func BenchmarkFig06Reachability(b *testing.B) {
	runExperiment(b, experiments.Fig06)
}

// BenchmarkFig07Redundancy regenerates Fig. 7: intended vs
// established redundancy.
func BenchmarkFig07Redundancy(b *testing.B) {
	runExperiment(b, experiments.Fig07)
}

// BenchmarkFig08RouteRecovery regenerates Fig. 8: repair time of
// withdrawn- vs failed-caused route breakages.
func BenchmarkFig08RouteRecovery(b *testing.B) {
	runExperiment(b, experiments.Fig08)
}

// BenchmarkFig09Enactment regenerates Fig. 9: intent enactment times
// vs control-channel RTT.
func BenchmarkFig09Enactment(b *testing.B) {
	runExperiment(b, experiments.Fig09)
}

// BenchmarkFig10ModelError regenerates Fig. 10: measured-minus-
// modelled B2B channel error.
func BenchmarkFig10ModelError(b *testing.B) {
	runExperiment(b, experiments.Fig10)
}

// BenchmarkFig11LinkLifetime regenerates Fig. 11: B2G/B2B link
// lifetime distributions and establishment statistics.
func BenchmarkFig11LinkLifetime(b *testing.B) {
	runExperiment(b, experiments.Fig11)
}

// BenchmarkHeadlinePredictive regenerates the §8 headline: predictive
// vs reactive recovery.
func BenchmarkHeadlinePredictive(b *testing.B) {
	runExperiment(b, experiments.Headline)
}

// BenchmarkAppARedundancySweep regenerates Appendix A: redundancy vs
// transceivers per balloon.
func BenchmarkAppARedundancySweep(b *testing.B) {
	runExperiment(b, experiments.AppA)
}

// BenchmarkAppDMANETCompare regenerates Appendix D: the four-protocol
// MANET comparison.
func BenchmarkAppDMANETCompare(b *testing.B) {
	runExperiment(b, experiments.AppD)
}

// BenchmarkFig13ObstructionSkew regenerates Fig. 13 (as data): stale
// obstruction-mask detection from pointing-correlated telemetry.
func BenchmarkFig13ObstructionSkew(b *testing.B) {
	runExperiment(b, experiments.Fig13)
}

// --- Ablation benches (design decisions called out in DESIGN.md §5) ---

// BenchmarkAblationHysteresis measures topology churn with the
// solver's keep-established-links bias on vs off.
func BenchmarkAblationHysteresis(b *testing.B) {
	runExperiment(b, experiments.AblationHysteresis)
}

// BenchmarkAblationRedundancy measures the availability value of
// tasking idle transceivers with redundant links.
func BenchmarkAblationRedundancy(b *testing.B) {
	runExperiment(b, experiments.AblationRedundancy)
}

// BenchmarkAblationMarginal measures the value of retaining
// (penalized) marginal links instead of dropping them.
func BenchmarkAblationMarginal(b *testing.B) {
	runExperiment(b, experiments.AblationMarginal)
}

// BenchmarkAblationTTE measures the cost of an optimistic satcom TTE
// versus the production p95 policy.
func BenchmarkAblationTTE(b *testing.B) {
	runExperiment(b, experiments.AblationTTE)
}

// BenchmarkAblationWeather measures planning quality under each
// weather-input set (fused vs gauges vs forecast vs climatology).
func BenchmarkAblationWeather(b *testing.B) {
	runExperiment(b, experiments.AblationWeather)
}

// BenchmarkChaosAvail replays the standard fault script (controller
// crash, satcom outage, stale telemetry, solver brown-out, gateway
// loss) and reports per-fault availability and restart-safety
// counters.
func BenchmarkChaosAvail(b *testing.B) {
	runExperiment(b, experiments.ChaosAvail)
}
