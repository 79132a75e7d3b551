// Command chaosearch runs the property-based chaos search: N seeded
// trials of randomly generated fault scripts against full controller
// simulations, checking the invariant suite (duplicate enactments,
// late sync enactments, bounded recovery, routing loops, control
// consistency, position sanity, determinism) and delta-debug
// shrinking any violating script to a minimal reproducer.
//
// Usage:
//
//	chaosearch -seed 1 -trials 25 -scale 2 -out report.json
//
// The run is deterministic in (-seed, -trials, -scale, -hours,
// -prefix) regardless of -workers. Exit status is non-zero when any
// trial violated an invariant the shrinker could not minimize (an
// "unshrunk violation" — either a shrink error or budget exhaustion).
// A bad command line (-trials < 1, -scale outside 1..3, -hours not
// positive, -workers < 1, a negative -shrink-budget, an unknown fault
// kind or a stray argument) is rejected with one line on stderr and
// exit status 2 before any trial runs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"minkowski/internal/chaos"
	"minkowski/internal/chaos/search"
	"minkowski/internal/obs"
)

// options is a validated command line.
type options struct {
	cfg    search.SearchConfig
	out    string
	obsDir string
}

// parseArgs parses and validates the command line. Every problem is
// reported on errOut as one line (the flag package adds its usage text
// to its own) and returned, so main exits before any trial runs.
func parseArgs(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("chaosearch", flag.ContinueOnError)
	fs.SetOutput(errOut)
	seed := fs.Int64("seed", 1, "master seed (trial seeds derive from it)")
	trials := fs.Int("trials", 10, "number of generated fault scripts")
	scale := fs.Int("scale", 1, "fleet scale 1..3 (11/16/21 platforms)")
	hours := fs.Float64("hours", 3, "simulated hours per trial")
	workers := fs.Int("workers", 4, "concurrent trials (does not affect results)")
	out := fs.String("out", "", "write the JSON report here (default stdout)")
	prefix := fs.Bool("prefix", false, "run with the pre-fix compat knobs (symmetric in-band, no telemetry guard, no epoch fencing)")
	budget := fs.Int("shrink-budget", search.DefaultShrinkBudget, "max candidate runs per shrink")
	kindsCS := fs.String("kinds", "", "comma-separated fault kinds to restrict the grammar to (default all)")
	obsDir := fs.String("obs", "", "also write each violating trial's flight-recorder dump and obs snapshot as flight-<trial>.json under this directory")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q (chaosearch takes flags only)", fs.Arg(0))
	case *trials < 1:
		err = fmt.Errorf("-trials must be at least 1, got %d", *trials)
	case *scale < 1 || *scale > 3:
		err = fmt.Errorf("-scale must be 1..3, got %d", *scale)
	case !(*hours > 0):
		err = fmt.Errorf("-hours must be positive, got %v", *hours)
	case *workers < 1:
		err = fmt.Errorf("-workers must be at least 1, got %d", *workers)
	case *budget < 0:
		err = fmt.Errorf("-shrink-budget must not be negative, got %d", *budget)
	}
	var kinds []chaos.Kind
	if err == nil && *kindsCS != "" {
		for _, name := range strings.Split(*kindsCS, ",") {
			k, kerr := chaos.ParseKind(strings.TrimSpace(name))
			if kerr != nil {
				err = kerr
				break
			}
			kinds = append(kinds, k)
		}
	}
	if err != nil {
		fmt.Fprintf(errOut, "chaosearch: %v\n", err)
		return nil, err
	}
	return &options{
		cfg: search.SearchConfig{
			Seed: *seed, Trials: *trials, Scale: *scale, Hours: *hours,
			Workers: *workers, Opts: search.Options{PreFix: *prefix},
			ShrinkBudget: *budget, Kinds: kinds,
		},
		out:    *out,
		obsDir: *obsDir,
	}, nil
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	rep := search.Search(o.cfg)

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaosearch:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if o.out == "" {
		os.Stdout.Write(b)
	} else if err := os.WriteFile(o.out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "chaosearch:", err)
		os.Exit(1)
	}

	if o.obsDir != "" {
		if err := os.MkdirAll(o.obsDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "chaosearch:", err)
			os.Exit(1)
		}
		dumps := 0
		for _, r := range rep.Results {
			if len(r.Violations) == 0 || (r.Flight == nil && r.Obs == nil) {
				continue
			}
			box := struct {
				Trial      int                `json:"trial"`
				Seed       int64              `json:"seed"`
				Violations []search.Violation `json:"violations"`
				Flight     *obs.FlightDump    `json:"flight,omitempty"`
				Obs        *obs.Snapshot      `json:"obs,omitempty"`
			}{r.Trial, r.Seed, r.Violations, r.Flight, r.Obs}
			db, err := json.MarshalIndent(box, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "chaosearch:", err)
				os.Exit(1)
			}
			db = append(db, '\n')
			path := filepath.Join(o.obsDir, fmt.Sprintf("flight-%04d.json", r.Trial))
			if err := os.WriteFile(path, db, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "chaosearch:", err)
				os.Exit(1)
			}
			dumps++
		}
		fmt.Fprintf(os.Stderr, "chaosearch: wrote %d flight dumps to %s\n", dumps, o.obsDir)
	}

	unshrunk := 0
	for _, r := range rep.Results {
		if len(r.Violations) > 0 && r.Shrunk == nil && !r.SkippedAsDuplicate {
			unshrunk++
			fmt.Fprintf(os.Stderr, "chaosearch: trial %d (seed %d) violated %v but did not shrink: %s\n",
				r.Trial, r.Seed, r.Violations[0].Invariant, r.Error)
		}
	}
	fmt.Fprintf(os.Stderr, "chaosearch: %d/%d trials violating (%d signature groups, %d skipped as duplicates), %d shrunk reproducers\n",
		rep.Violating, rep.Trials, rep.DedupGroups, rep.DedupSkipped, rep.Shrunk)
	if unshrunk > 0 {
		os.Exit(1)
	}
}
