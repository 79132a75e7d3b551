package main

import (
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
