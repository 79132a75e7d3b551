package experiments

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"minkowski/internal/stats"
)

// quick is the scale-1 configuration the tests run.
var quick = Options{Seed: 1, Scale: 1}

// csvOf returns res's CSV table, failing unless it is named name.
func csvOf(t *testing.T, res *Result, name string) [][]string {
	t.Helper()
	if res.CSVName != name {
		t.Fatalf("%s writes CSV %q, want %q", res.ID, res.CSVName, name)
	}
	return res.CSV
}

func TestResultFormatting(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Rows: []Row{{"m", "p", "v"}}}
	s := r.String()
	for _, want := range []string{"=== x: t ===", "paper: p", "measured: v"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in %q", want, s)
		}
	}
}

func TestFig13DetectsObstruction(t *testing.T) {
	res := Fig13(quick)
	found := false
	for _, row := range res.Rows {
		if row.Metric == "flags within true sector (60–85°)" && row.Measured == "true" {
			found = true
		}
	}
	if !found {
		t.Errorf("Fig13 failed to localize the stale obstruction:\n%s", res)
	}
}

func TestAppARedundancyGrowsWithTransceivers(t *testing.T) {
	res := AppA(quick)
	csv := csvOf(t, res, "xcvr_sweep")
	if len(csv) != 6 { // header + k=1..5
		t.Fatalf("sweep rows = %d", len(csv))
	}
	// Links must be non-decreasing in k, and k=3 must beat k=1.
	prev := -1
	var links []int
	for _, rec := range csv[1:] {
		n, err := strconv.Atoi(rec[1])
		if err != nil {
			t.Fatal(err)
		}
		links = append(links, n)
		if n < prev-1 { // allow tiny solver noise
			t.Errorf("links decreased with more transceivers: %v", links)
		}
		prev = n
	}
	if links[2] <= links[0] {
		t.Errorf("3 transceivers (%d links) must beat 1 (%d)", links[2], links[0])
	}
	// Diminishing returns: the k=4→5 gain must not exceed the k=1→3
	// gain.
	if links[4]-links[3] > links[2]-links[0] {
		t.Errorf("no diminishing returns visible: %v", links)
	}
}

func TestAppDComparisonFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res := AppD(quick)
	verdict := ""
	for _, row := range res.Rows {
		if row.Metric == "AODV overhead < DSDV" {
			verdict = row.Measured
		}
	}
	if verdict != "true" {
		t.Errorf("AppD overhead finding not reproduced:\n%s", res)
	}
}

// TestAppDDeterministic: one seed, one output. AODV once re-armed
// same-instant re-discoveries in map order, which moved its loss draws
// and the bytes= column from run to run.
func TestAppDDeterministic(t *testing.T) {
	want := AppD(quick).String()
	for i := 0; i < 2; i++ {
		if got := AppD(quick).String(); got != want {
			t.Fatalf("run %d differs from the first:\n%s\nwant:\n%s", i+2, got, want)
		}
	}
}

// TestCDFCSVOneGridPerSeries: each series is rendered on its own
// quantile grid, so the second series' x values are its own.
func TestCDFCSVOneGridPerSeries(t *testing.T) {
	var a, b stats.Sample
	a.AddAll([]float64{3, 1, 2})
	b.AddAll([]float64{30, 10, 20, 40, 50})
	csv := cdfCSV(3, "%.1f", cdfSeries{"a", &a}, cdfSeries{"b", &b})
	want := [][]string{
		{"series", "x", "cum_prob"},
		{"a", "1.0", "0.000"}, {"a", "2.0", "0.500"}, {"a", "3.0", "1.000"},
		{"b", "10.0", "0.000"}, {"b", "30.0", "0.500"}, {"b", "50.0", "1.000"},
	}
	if f, w := fmt.Sprint(csv), fmt.Sprint(want); f != w {
		t.Errorf("cdfCSV = %s, want %s", f, w)
	}
}

// TestSharedWorldMatchesFreshWorlds: two reads on one world, listed
// latest horizon first, render exactly what each renders on a world of
// its own. Fig. 8's extract sorts samples in place and Fig. 7's reads
// others, so an extract that disturbed a later one would show here;
// a runner that skipped the horizon sort would extract Fig. 7 at 2 h.
func TestSharedWorldMatchesFreshWorlds(t *testing.T) {
	o := quick
	shared := []entry{figure("fig08", "", "nopower", 2, fig08), figure("fig07", "", "nopower", 1, fig07)}
	got := run(o, shared)
	for i, e := range shared {
		if want := run(o, []entry{e})[0]; !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s on the shared world (rows or CSV differ):\n%son its own world:\n%s", e.id, got[i], want)
		}
	}
}

// TestSuitesRunEachWorldOnce: every scenario a read names exists, and
// the suites simulate one world per distinct scenario.
func TestSuitesRunEachWorldOnce(t *testing.T) {
	for _, tc := range []struct {
		suite  string
		worlds int
	}{{"all", 5}, {"ablations", 9}} {
		worlds := map[string]bool{}
		for _, e := range table {
			if e.suite != tc.suite {
				continue
			}
			for _, s := range e.worlds {
				if scenarios[s] == nil {
					t.Errorf("%s reads unknown scenario %q", e.id, s)
				}
				worlds[s] = true
			}
		}
		if len(worlds) != tc.worlds {
			t.Errorf("suite %s simulates %d worlds, want %d", tc.suite, len(worlds), tc.worlds)
		}
	}
}
