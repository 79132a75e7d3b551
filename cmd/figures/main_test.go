package main

import (
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // substring of the one-line message; "" = accepted
	}{
		{"defaults", nil, ""},
		{"paper scale", []string{"-fig", "8", "-scale", "3", "-seed", "7"}, ""},
		{"figure id is case-insensitive", []string{"-fig", "appA"}, ""},
		{"scale zero", []string{"-scale", "0"}, "-scale must be at least 1, got 0"},
		{"scale negative", []string{"-scale", "-3"}, "-scale must be at least 1, got -3"},
		{"stray positional", []string{"-fig", "6", "extra"}, `unexpected argument "extra"`},
		{"flag after positional is stray too", []string{"6", "-scale", "2"}, `unexpected argument "6"`},
		{"unknown figure", []string{"-fig", "12"}, `unknown figure "12"`},
		{"removed flag", []string{"-solve-workers", "4"}, "flag provided but not defined: -solve-workers"},
		{"non-numeric scale", []string{"-scale", "big"}, "invalid value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var msg strings.Builder
			o, err := parseArgs(tc.args, &msg)
			if tc.wantErr == "" {
				if err != nil || o == nil || o.figures == nil {
					t.Fatalf("parseArgs(%q) = %v, %v; want accepted", tc.args, o, err)
				}
				if msg.Len() != 0 {
					t.Errorf("accepted command line printed %q", msg.String())
				}
				return
			}
			if err == nil {
				t.Fatalf("parseArgs(%q) accepted; want error containing %q", tc.args, tc.wantErr)
			}
			first, _, _ := strings.Cut(msg.String(), "\n")
			if !strings.Contains(first, tc.wantErr) {
				t.Errorf("parseArgs(%q) first line %q; want it to contain %q", tc.args, first, tc.wantErr)
			}
		})
	}
}

func TestParseArgsCarriesValues(t *testing.T) {
	var msg strings.Builder
	o, err := parseArgs([]string{"-scale", "2", "-seed", "9", "-csv", "out", "-profile", "cpu.pprof", "-memprofile", "mem.pprof", "-obs", "obs.json"}, &msg)
	if err != nil {
		t.Fatal(err)
	}
	if o.exp.Scale != 2 || o.exp.Seed != 9 ||
		o.csvDir != "out" || o.cpuProfile != "cpu.pprof" || o.memProfile != "mem.pprof" || o.obsPath != "obs.json" {
		t.Errorf("parsed options %+v", *o)
	}
}

// TestFigureGoldens pins the printed results of the figure suites at
// seed 1, stdout and every CSV, to the bytes committed in testdata: a
// change that moves any published number, draw or tie-break fails
// here. Each case runs as
//
//	figures <args> -seed 1 -csv NAME > NAME.txt
//
// from testdata, so the stdout's "wrote" lines name NAME/. Regenerate
// a case only for a change that means to move its numbers, and review
// the diff.
func TestFigureGoldens(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"all-scale1", []string{"-fig", "all", "-scale", "1"}},
		{"ablations-scale1", []string{"-fig", "ablations", "-scale", "1"}},
		{"appD-scale2", []string{"-fig", "appD", "-scale", "2"}},
		{"appD-scale3", []string{"-fig", "appD", "-scale", "3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := filepath.Join(t.TempDir(), tc.name)
			o, err := parseArgs(append(tc.args, "-seed", "1", "-csv", dir), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			var stdout strings.Builder
			if code := run(o, &stdout); code != 0 {
				t.Fatalf("exit status %d", code)
			}
			got := map[string]string{tc.name + ".txt": strings.ReplaceAll(stdout.String(), dir, tc.name)}
			csvs, _ := filepath.Glob(filepath.Join(dir, "*.csv"))
			for _, path := range csvs {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				got[filepath.Join(tc.name, filepath.Base(path))] = string(b)
			}
			want, _ := filepath.Glob(filepath.Join("testdata", tc.name, "*.csv"))
			want = append(want, filepath.Join("testdata", tc.name+".txt"))
			if len(got) != len(want) {
				t.Errorf("run wrote %d files, testdata has %d", len(got), len(want))
			}
			for _, path := range want {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				name, _ := filepath.Rel("testdata", path)
				if got[name] != string(b) {
					t.Errorf("output differs from %s:\n%s\nwant:\n%s", path, got[name], b)
				}
			}
			if tc.name == "all-scale1" {
				checkCDFCSV(t, got, "all-scale1/fig04_hourly_delta_cdf.csv", "frac_changed")
				checkCDFCSV(t, got, "all-scale1/fig07_redundancy_cdf.csv", "established", "intended")
				checkCDFCSV(t, got, "all-scale1/fig08_recovery_cdf.csv", "withdrawn", "failed")
				checkCDFCSV(t, got, "all-scale1/fig11_lifetime_cdf.csv", "b2g", "b2b")
			}
		})
	}
}

// checkCDFCSV asserts that files[name] is a long-format CDF export
// holding exactly the named series, each with x and cum_prob
// non-decreasing and every cum_prob in [0, 1].
func checkCDFCSV(t *testing.T, files map[string]string, name string, series ...string) {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(files[name])).ReadAll()
	if err != nil || len(rows) == 0 || strings.Join(rows[0], ",") != "series,x,cum_prob" {
		t.Fatalf("%s: header = %v (%v), want series,x,cum_prob", name, rows, err)
	}
	var seen []string
	var lastX, lastP float64
	for _, rec := range rows[1:] {
		x, errX := strconv.ParseFloat(rec[1], 64)
		p, errP := strconv.ParseFloat(rec[2], 64)
		if errX != nil || errP != nil {
			t.Fatalf("%s: row %v: %v %v", name, rec, errX, errP)
		}
		if len(seen) == 0 || seen[len(seen)-1] != rec[0] {
			seen = append(seen, rec[0])
		} else if x < lastX || p < lastP {
			t.Errorf("%s: series %s decreases at %v (after x=%v cum_prob=%v)", name, rec[0], rec, lastX, lastP)
		}
		if p < 0 || p > 1 {
			t.Errorf("%s: row %v: cum_prob outside [0, 1]", name, rec)
		}
		lastX, lastP = x, p
	}
	if strings.Join(seen, ",") != strings.Join(series, ",") {
		t.Errorf("%s: series = %v, want %v, each once", name, seen, series)
	}
}
