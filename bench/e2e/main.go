// Command e2e is the repository's end-to-end benchmark: it runs whole
// core.Controller runs and chaos-search trials (search.Run) on four
// workloads, reports the real-time factor and the other end-to-end
// metrics of BENCHMARK.json, checks the runs' outputs, and — with
// -trace 1 — times the calls into each layer's public functions from
// the harness side in a separate traced run. See bench/README.md.
//
//	bash bench/run.sh -workload all|<name> -seed 1 -seconds 20 -trace 0|1 [-out runs.json] [-trace-out spans.json]
//	bash bench/run.sh compare A.json B.json
//
// The last line of standard output is one JSON object per workload
// (correct, attempted, failed, metrics); the readable report goes to
// standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// header records where a run was made. SolveWorkers and GOMAXPROCS
// stay at their defaults; they are recorded, not set.
type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readHeader() header {
	h := header{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// record is one run as -out stores it and compare reads it.
type record struct {
	header
	Seconds float64 `json:"seconds"`
	result
}

// metricValue is a metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's machine-readable verdict.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// line renders a result against the metric table: every metric of the
// table must be present and finite, or the run is not correct.
func line(r result) resultLine {
	out := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defsFor(r.Trace) {
		v, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

func report(h header, r result) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(os.Stderr, "\n== %s seed=%d %s worlds=%d  nproc=%d GOMAXPROCS=%d SolveWorkers=default %s commit=%s\n",
		r.Workload, r.Seed, mode, r.Worlds, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	for _, d := range defsFor(r.Trace) {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	if !r.Trace {
		fmt.Fprintf(os.Stderr, "  machine speed %.3f of nominal (rtf, cpu_s_per_sim_hour and setup_s are normalised by it; raw rtf %.6g sim_s/s, raw cpu %.6g s/sim_h)\n", r.Speed, r.RawRTF, r.RawCPUSPerSimHour)
	}
	fmt.Fprintf(os.Stderr, "  operations: %d attempted, %d failed; telemetry digests %v\n", r.Attempted, r.Failed, r.Digests)
	for _, f := range r.Failures {
		fmt.Fprintln(os.Stderr, "  FAILED:", f)
	}
}

// appendRecords adds records to the JSON array in path, creating it.
func appendRecords(path string, recs []record) error {
	var all []record
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	return writeJSON(path, append(all, recs...))
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fail(code int, args ...interface{}) {
	fmt.Fprintln(os.Stderr, append([]interface{}{"e2e:"}, args...)...)
	os.Exit(code)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fail(2, "usage: compare A.json B.json")
		}
		os.Exit(compare(os.Stdout, os.Args[2], os.Args[3]))
	}
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of the run lengths: each run stops up to 2 % short of its nominal horizon (the worlds are fixed: bench/README.md)")
		seconds  = flag.Float64("seconds", nominalSeconds, "measuring window: scales the number of whole runs measured")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from one traced unit")
		out      = flag.String("out", "", "append this invocation's runs to a JSON file (input of compare)")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans to a JSON file")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	specs := workloads
	if *workload != "all" {
		s, ok := findSpec(*workload)
		if !ok {
			fail(2, "unknown workload", *workload)
		}
		specs = []spec{s}
	}

	h := readHeader()
	tr := newTracer()
	var recs []record
	for _, s := range specs {
		var r result
		if *trace == 1 {
			r = runTracedUnit(s, *seed, *seconds, tr)
		} else {
			r = runUntraced(s, *seed, *seconds)
		}
		report(h, r)
		recs = append(recs, record{header: h, Seconds: *seconds, result: r})
		b, err := json.Marshal(line(r))
		if err != nil {
			fail(1, err)
		}
		fmt.Println(string(b))
	}
	if *out != "" {
		if err := appendRecords(*out, recs); err != nil {
			fail(1, err)
		}
	}
	if *traceOut != "" {
		if err := writeJSON(*traceOut, tr.spans); err != nil {
			fail(1, err)
		}
	}
}
