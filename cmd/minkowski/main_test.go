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
		{"reactive day", []string{"-hours", "24", "-balloons", "10", "-seed", "7", "-report", "0.5", "-lead", "0", "-nopower"}, ""},
		{"hours zero", []string{"-hours", "0"}, "-hours must be positive, got 0"},
		{"hours negative", []string{"-hours", "-4"}, "-hours must be positive, got -4"},
		{"report zero never advances", []string{"-report", "0"}, "-report must be positive, got 0"},
		{"report negative", []string{"-report", "-1"}, "-report must be positive, got -1"},
		{"report NaN", []string{"-report", "NaN"}, "-report must be positive, got NaN"},
		{"no balloons", []string{"-balloons", "0"}, "-balloons must be at least 1, got 0"},
		{"negative lead", []string{"-lead", "-180"}, "-lead must not be negative, got -180"},
		{"stray positional", []string{"-hours", "4", "extra"}, `unexpected argument "extra"`},
		{"unknown flag", []string{"-scale", "2"}, "flag provided but not defined: -scale"},
		{"non-numeric hours", []string{"-hours", "day"}, "invalid value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var msg strings.Builder
			o, err := parseArgs(tc.args, &msg)
			if tc.wantErr == "" {
				if err != nil || o == nil {
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
	o, err := parseArgs([]string{"-hours", "26", "-balloons", "12", "-seed", "9", "-report", "13", "-lead", "60", "-nopower"}, &msg)
	if err != nil {
		t.Fatal(err)
	}
	s := o.scenario
	if o.hours != 26 || o.reportEvery != 13 || s.FleetSize != 12 || s.Seed != 9 || s.PredictiveLeadS != 60 || !s.DisablePower {
		t.Errorf("parsed options %+v", *o)
	}
}
