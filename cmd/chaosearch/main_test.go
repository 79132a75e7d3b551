package main

import (
	"strings"
	"testing"

	"minkowski/internal/chaos"
	"minkowski/internal/chaos/search"
)

func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // substring of the one-line message; "" = accepted
	}{
		{"defaults", nil, ""},
		{"nightly profile", []string{"-seed", "7", "-trials", "25", "-scale", "2", "-hours", "0.5", "-workers", "1", "-shrink-budget", "0", "-kinds", "lease-flap, replica-partition", "-prefix"}, ""},
		{"no trials", []string{"-trials", "0"}, "-trials must be at least 1, got 0"},
		{"negative trials", []string{"-trials", "-1"}, "-trials must be at least 1, got -1"},
		{"scale zero", []string{"-scale", "0"}, "-scale must be 1..3, got 0"},
		{"scale four", []string{"-scale", "4"}, "-scale must be 1..3, got 4"},
		{"hours zero", []string{"-hours", "0"}, "-hours must be positive, got 0"},
		{"hours negative", []string{"-hours", "-3"}, "-hours must be positive, got -3"},
		{"hours NaN", []string{"-hours", "NaN"}, "-hours must be positive, got NaN"},
		{"no workers", []string{"-workers", "0"}, "-workers must be at least 1, got 0"},
		{"negative workers", []string{"-workers", "-2"}, "-workers must be at least 1, got -2"},
		{"negative shrink budget", []string{"-shrink-budget", "-1"}, "-shrink-budget must not be negative, got -1"},
		{"removed guided flag", []string{"-guided"}, "flag provided but not defined: -guided"},
		{"removed mutate budget flag", []string{"-mutate-budget", "5"}, "flag provided but not defined: -mutate-budget"},
		{"unknown kind", []string{"-kinds", "meteor"}, `unknown fault kind "meteor"`},
		{"stray positional", []string{"-trials", "4", "extra"}, `unexpected argument "extra"`},
		{"unknown flag", []string{"-balloons", "2"}, "flag provided but not defined: -balloons"},
		{"non-numeric trials", []string{"-trials", "many"}, "invalid value"},
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
	o, err := parseArgs([]string{"-seed", "9", "-trials", "25", "-scale", "2", "-hours", "1.5", "-workers", "3",
		"-prefix", "-shrink-budget", "40", "-kinds", "satcom-outage",
		"-out", "r.json", "-obs", "dumps"}, &msg)
	if err != nil {
		t.Fatal(err)
	}
	c := o.cfg
	if c.Seed != 9 || c.Trials != 25 || c.Scale != 2 || c.Hours != 1.5 || c.Workers != 3 ||
		c.Opts != (search.Options{PreFix: true}) || c.ShrinkBudget != 40 ||
		len(c.Kinds) != 1 || c.Kinds[0] != chaos.SatcomOutage || o.out != "r.json" || o.obsDir != "dumps" {
		t.Errorf("parsed options %+v", *o)
	}
}
