package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// TestAppDGolden pins Appendix D's protocol comparison, stdout and CSV,
// at scales 1–3 under seed 1 to the bytes committed in testdata: the
// message-level protocols' loss draws, tie-breaks and byte counts may
// not move under a refactor. Regenerate a file only for a change that
// means to move them:
//
//	go run ./cmd/figures -fig appD -seed 1 -scale N > testdata/appD-scaleN.txt
//
// and the CSV it writes under -csv DIR, renamed appD-scaleN_manet_compare.csv.
func TestAppDGolden(t *testing.T) {
	for _, scale := range []string{"1", "2", "3"} {
		o, err := parseArgs([]string{"-fig", "appD", "-seed", "1", "-scale", scale}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var stdout strings.Builder
		dir := t.TempDir()
		for _, r := range o.figures(o.exp) {
			fmt.Fprintln(&stdout, r)
			if err := writeCSV(dir, r); err != nil {
				t.Fatal(err)
			}
		}
		csv, err := os.ReadFile(filepath.Join(dir, "appD_manet_compare.csv"))
		if err != nil {
			t.Fatal(err)
		}
		for golden, got := range map[string]string{
			"appD-scale" + scale + ".txt":               stdout.String(),
			"appD-scale" + scale + "_manet_compare.csv": string(csv),
		} {
			want, err := os.ReadFile(filepath.Join("testdata", golden))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("scale %s: output differs from testdata/%s:\n%s\nwant:\n%s", scale, golden, got, want)
			}
		}
	}
}
