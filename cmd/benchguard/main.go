// Command benchguard is the CI benchmark-regression gate. It compares
// a freshly measured benchmark summary (BENCH_linkeval.json from
// internal/linkeval's TestWriteBenchJSON, or BENCH_solver.json from
// internal/solver's) against the committed baseline and fails if any
// speedup ratio regressed by more than the allowed fraction.
//
// CI machines differ wildly in absolute speed, so the guard never
// compares ns/op across runs. It compares *speedup ratios* — every
// numeric field whose name contains "speedup" (e.g.
// speedup_vs_brute, cold_speedup_vs_reference) — which divide
// out the machine: a >20% drop at any scale means the optimized path
// itself got slower relative to the reference measured on the same
// box, and the build fails. Other fields (ns/op, reuse rates) are
// carried in the JSON for humans but never gated.
//
// Usage:
//
//	go run ./cmd/benchguard -current BENCH_linkeval.json \
//	    -baseline internal/linkeval/testdata/bench_baseline.json
//	go run ./cmd/benchguard -current BENCH_solver.json \
//	    -baseline internal/solver/testdata/bench_baseline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// record is one scale's row: field name → value. Parsing into a loose
// map keeps the guard schema-agnostic — any summary whose rows are
// flat numeric objects works, and new speedup fields are gated the
// moment a baseline records them.
type record map[string]float64

func load(path string) (map[string]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := map[string]record{}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("%s: no benchmark records", path)
	}
	return m, nil
}

// speedupFields returns the gated field names of a row, sorted.
func speedupFields(r record) []string {
	var fs []string
	for name := range r {
		if strings.Contains(name, "speedup") {
			fs = append(fs, name)
		}
	}
	sort.Strings(fs)
	return fs
}

func main() {
	currentPath := flag.String("current", "BENCH_linkeval.json", "freshly measured benchmark summary")
	baselinePath := flag.String("baseline", "internal/linkeval/testdata/bench_baseline.json", "committed baseline summary")
	maxDrop := flag.Float64("max-drop", 0.20, "maximum allowed fractional speedup drop vs baseline")
	flag.Parse()

	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}

	scales := make([]string, 0, len(baseline))
	for s := range baseline {
		scales = append(scales, s)
	}
	sort.Strings(scales)

	failed := false
	gated := 0
	check := func(scale, name string, cur, base float64) {
		if base <= 0 {
			return
		}
		gated++
		floor := base * (1 - *maxDrop)
		status := "ok"
		if cur < floor {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%-8s %-36s current %6.2fx  baseline %6.2fx  floor %6.2fx  %s\n",
			scale, name, cur, base, floor, status)
	}
	for _, scale := range scales {
		base := baseline[scale]
		cur, ok := current[scale]
		if !ok {
			fmt.Printf("%-8s missing from current measurement  FAIL\n", scale)
			failed = true
			continue
		}
		for _, name := range speedupFields(base) {
			check(scale, name, cur[name], base[name])
		}
	}
	if gated == 0 && !failed {
		fmt.Fprintln(os.Stderr, "benchguard: baseline has no speedup fields to gate")
		os.Exit(2)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchguard: speedup regressed more than %.0f%% vs baseline\n", *maxDrop*100)
		os.Exit(1)
	}
	fmt.Println("benchguard: speedups within regression bounds")
}
