package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// shortened returns a workload cut to a smoke-test size; the runner
// code path is the one the benchmark uses.
func shortened(s spec) spec {
	s.simHours = 0.3
	if s.name == "fleet-56" {
		s.simHours = 0.15
	}
	return s
}

func checkLine(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	l := line(r)
	if !l.Correct || l.Failed != 0 || l.Attempted < 1 {
		t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", r.Workload, r.Trace, l.Correct, l.Attempted, l.Failed, r.Failures)
	}
	if len(l.Metrics) != len(defs) {
		t.Errorf("%s trace=%v: %d metrics on the result line, want %d", r.Workload, r.Trace, len(l.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s missing or not finite (%v)", r.Workload, d.name, v)
		}
		if l.Metrics[d.name].Unit != d.unit || d.unit == "" {
			t.Errorf("%s: metric %s has unit %q, want %q", r.Workload, d.name, l.Metrics[d.name].Unit, d.unit)
		}
	}
}

// TestSmokeEveryWorkload runs every workload, untraced and traced,
// through the benchmark's own runner and checks that every metric
// named in the tables is emitted with its unit and a finite value and
// that no operation fails.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, s := range workloads {
		s := shortened(s)
		u := runUntraced(s, 1, 1)
		checkLine(t, u, endToEnd)
		for _, d := range endToEnd {
			if u.Metrics[d.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.name, d.name, u.Metrics[d.name])
			}
		}
		checkLine(t, runTracedUnit(s, 1, 1, newTracer()), perLayer)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func better(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// TestNamesMatchBenchmarkJSON: the metric and workload tables in code
// and BENCHMARK.json are the same set, inside the contract's limits.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q / %q differs from code or is not one short line", i, w.Name, w.Why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code (limit 16)", len(bj.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range bj.EndToEnd {
		use(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d) || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v differs from code %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q or bound %v outside the contract", m.Name, m.Unit, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code (limit 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		use(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d) || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %d: %+v differs from code %+v", i, m, d)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v / run_seconds %d outside the contract", bj.Paths, bj.RunSeconds)
	}
}

// TestTracedRunRepeatsAndNests: two traced runs of a shortened
// fleet-day give identical exact counts and identical span counts per
// name; every span's children lie inside it. (That the probes leave
// the run's event count and availability untouched is an operation
// check of every traced run: TestSmokeEveryWorkload fails on it.)
func TestTracedRunRepeatsAndNests(t *testing.T) {
	s, _ := findSpec("fleet-day")
	s = shortened(s)
	var counts [2]map[string]int
	var results [2]result
	for i := range results {
		tr := newTracer()
		results[i] = runTracedUnit(s, 1, 1, tr)
		counts[i] = map[string]int{}
		for _, sp := range tr.spans {
			counts[i][sp.Name]++
			if sp.End < sp.Start {
				t.Fatalf("span %d %s ends before it starts", sp.ID, sp.Name)
			}
			if sp.Parent >= 0 {
				p := tr.spans[sp.Parent]
				if sp.Start < p.Start || sp.End > p.End || sp.Run != p.Run {
					t.Fatalf("span %d %s [%d,%d] lies outside its parent %s [%d,%d]", sp.ID, sp.Name, sp.Start, sp.End, p.Name, p.Start, p.End)
				}
			}
		}
		if len(tr.open) != 0 {
			t.Fatalf("%d spans left open", len(tr.open))
		}
	}
	for _, want := range []string{"run", "checkpoint", "core.solve_cycle", "manet.path_from", "solver.solve_warm"} {
		if counts[0][want] == 0 {
			t.Errorf("no %s span recorded", want)
		}
	}
	for name, n := range counts[0] {
		if counts[1][name] != n {
			t.Errorf("span %s: %d in the first run, %d in the second", name, n, counts[1][name])
		}
	}
	for _, d := range perLayer {
		if d.exact && results[0].Metrics[d.name] != results[1].Metrics[d.name] {
			t.Errorf("exact count %s: %v then %v", d.name, results[0].Metrics[d.name], results[1].Metrics[d.name])
		}
	}
}

// TestTracedRunQueuesFewHarnessEvents: the harness keeps at most the
// next checkpoint and the end-of-run sentinel in the engine's queue, so
// sim.pending_max reads the controller's queue, not the run's length.
func TestTracedRunQueuesFewHarnessEvents(t *testing.T) {
	s, _ := findSpec("fleet-day")
	_, c, traced := runTraced(newTracer(), shortened(s).generate(1, 0))
	if c == nil {
		t.Fatal("set-up failed")
	}
	if traced.probes.checkpoints < 5 || traced.harnessQueuedMax > 2 {
		t.Errorf("%d checkpoints, up to %d harness events queued at once, want at most 2", traced.probes.checkpoints, traced.harnessQueuedMax)
	}
	if nodes := len(c.Fleet.Nodes()); traced.probes.pendingMax < nodes || traced.probes.pendingMax > 64*nodes {
		t.Errorf("pending_max %d with %d nodes", traced.probes.pendingMax, nodes)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	rec := func(rtf float64, failed int) record {
		return record{result: result{Workload: "fleet-day", Attempted: 4, Failed: failed, Metrics: map[string]float64{"rtf": rtf}}}
	}
	write := func(name string, recs ...record) string {
		p := filepath.Join(t.TempDir(), name)
		if err := writeJSON(p, recs); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", rec(1000, 0), rec(1010, 0), rec(990, 0), rec(1005, 0))
	for _, tc := range []struct {
		name string
		b    string
		code int
		want string
	}{
		{"same", write("b.json", rec(1001, 0), rec(1008, 0), rec(992, 0), rec(1004, 0)), 0, "ok"},
		{"slower", write("b.json", rec(700, 0), rec(710, 0), rec(690, 0), rec(705, 0)), 1, "regressed"},
		{"failing", write("b.json", rec(1001, 1), rec(1008, 0), rec(992, 0), rec(1004, 0)), 1, "regressed"},
	} {
		var out bytes.Buffer
		if code := compare(&out, base, tc.b); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
	// Runs of the base that spread wider than the bound and interleave
	// with the change's are unresolved, not ok.
	wide := write("a.json", rec(700, 0), rec(1300, 0), rec(800, 0), rec(1200, 0))
	var out bytes.Buffer
	if code := compare(&out, wide, write("b.json", rec(990, 0), rec(1010, 0))); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("wide base: exit %d, output:\n%s", code, out.String())
	}
}
