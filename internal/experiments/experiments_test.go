package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"minkowski/internal/stats"
)

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
	res := Fig13(DefaultOptions())
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
	res := AppA(DefaultOptions())
	csv := res.CSV["xcvr_sweep"]
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
	res := AppD(DefaultOptions())
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
	want := AppD(DefaultOptions()).String()
	for i := 0; i < 2; i++ {
		if got := AppD(DefaultOptions()).String(); got != want {
			t.Fatalf("run %d differs from the first:\n%s\nwant:\n%s", i+2, got, want)
		}
	}
}

func TestFig07ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res := Fig07(DefaultOptions())
	for _, row := range res.Rows {
		if row.Metric == "established < intended" && row.Measured != "true" {
			t.Errorf("established redundancy should undershoot intent:\n%s", res)
		}
	}
	checkCDFCSV(t, res.CSV["redundancy_cdf"], "established", "intended")
}

// checkCDFCSV asserts csv is a long-format CDF export holding exactly
// the named series, each with x and cum_prob non-decreasing and every
// cum_prob in [0, 1].
func checkCDFCSV(t *testing.T, csv [][]string, series ...string) {
	t.Helper()
	if len(csv) == 0 || strings.Join(csv[0], ",") != "series,x,cum_prob" {
		t.Fatalf("header = %v, want series,x,cum_prob", csv)
	}
	var seen []string
	var lastX, lastP float64
	for _, rec := range csv[1:] {
		x, errX := strconv.ParseFloat(rec[1], 64)
		p, errP := strconv.ParseFloat(rec[2], 64)
		if errX != nil || errP != nil {
			t.Fatalf("row %v: %v %v", rec, errX, errP)
		}
		if len(seen) == 0 || seen[len(seen)-1] != rec[0] {
			seen = append(seen, rec[0])
		} else if x < lastX || p < lastP {
			t.Errorf("series %s decreases at %v (after x=%v cum_prob=%v)", rec[0], rec, lastX, lastP)
		}
		if p < 0 || p > 1 {
			t.Errorf("row %v: cum_prob outside [0, 1]", rec)
		}
		lastX, lastP = x, p
	}
	if strings.Join(seen, ",") != strings.Join(series, ",") {
		t.Errorf("series = %v, want %v, each once", seen, series)
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
	checkCDFCSV(t, csv, "a", "b")
}
