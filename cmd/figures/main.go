// Command figures regenerates the paper's evaluation figures from
// the simulation (see DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	figures -fig all -scale 1
//	figures -fig 8 -scale 3 -seed 7
//	figures -fig 11 -csv out/
//
// Figure IDs: 4, 6, 7, 8, 9, 10, 11, 13, headline, appA, appD,
// chaosavail, each ablation (abl-hysteresis, …), ablations, all.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"minkowski/internal/experiments"
)

// runners maps a lower-cased -fig value to its generator: every
// experiments table ID (a figure's also by number, "4" for "fig04")
// and the "all" and "ablations" suites.
var runners = func() map[string]func(experiments.Options) []*experiments.Result {
	m := map[string]func(experiments.Options) []*experiments.Result{}
	for _, name := range append(experiments.IDs(), "all", "ablations") {
		run := func(o experiments.Options) []*experiments.Result { return experiments.Run(o, name) }
		m[strings.ToLower(name)] = run
		if n, ok := strings.CutPrefix(name, "fig"); ok {
			m[strings.TrimLeft(n, "0")] = run
		}
	}
	return m
}()

// options is a validated command line.
type options struct {
	exp        experiments.Options
	figures    func(experiments.Options) []*experiments.Result
	csvDir     string
	cpuProfile string
	memProfile string
	obsPath    string
}

// parseArgs parses and validates the command line. Every problem is
// reported on errOut as one line (the flag package adds its usage text
// to its own) and returned, so main rejects bad input before any
// profile is started or scenario run.
func parseArgs(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fig := fs.String("fig", "all", "figure to regenerate (4,6,7,8,9,10,11,13,headline,appA,appD,abl-*,ablations,chaosavail,all)")
	scale := fs.Int("scale", 1, "fidelity scale: 1 quick, 3 paper-like fleet/duration")
	seed := fs.Int64("seed", 1, "simulation seed")
	csvDir := fs.String("csv", "", "directory to write CSV series into (optional)")
	cpuProfile := fs.String("profile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an end-of-run heap profile to this file")
	obsPath := fs.String("obs", "", "run the canonical scenario and write the observability export (metrics snapshot + solve-cycle span trees) to this file instead of regenerating figures")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	figures, known := runners[strings.ToLower(*fig)]
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q (figures takes flags only)", fs.Arg(0))
	case *scale < 1:
		err = fmt.Errorf("-scale must be at least 1, got %d", *scale)
	case !known:
		err = fmt.Errorf("unknown figure %q", *fig)
	}
	if err != nil {
		fmt.Fprintf(errOut, "figures: %v\n", err)
		return nil, err
	}
	return &options{
		exp:        experiments.Options{Seed: *seed, Scale: *scale},
		figures:    figures,
		csvDir:     *csvDir,
		cpuProfile: *cpuProfile,
		memProfile: *memProfile,
		obsPath:    *obsPath,
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
	os.Exit(run(o, os.Stdout))
}

// run executes a validated command line, printing results on stdout,
// and returns the exit status. It returns rather than exits so the
// deferred profile writers always run and a failed run still leaves a
// complete profile.
func run(o *options, stdout io.Writer) int {
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		defer func() {
			f, err := os.Create(o.memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if o.obsPath != "" {
		b, err := experiments.ObsExport(o.exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs: %v\n", err)
			return 1
		}
		b = append(b, '\n')
		if err := os.WriteFile(o.obsPath, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "obs: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote observability export to %s\n", o.obsPath)
		return 0
	}
	for _, r := range o.figures(o.exp) {
		fmt.Fprintln(stdout, r)
		if o.csvDir != "" {
			if err := writeCSV(o.csvDir, r, stdout); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
				return 1
			}
		}
	}
	return 0
}

func writeCSV(dir string, r *experiments.Result, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if r.CSVName == "" {
		return nil
	}
	var b strings.Builder
	for _, rec := range r.CSV {
		b.WriteString(strings.Join(rec, ","))
		b.WriteByte('\n')
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", r.ID, r.CSVName))
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  wrote %s\n", path)
	return nil
}
