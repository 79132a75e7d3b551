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
// Figure IDs: 4, 6, 7, 8, 9, 10, 11, 13, headline, appA, appD, all.
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

// one adapts a single-figure generator to the runners table.
func one(fn func(experiments.Options) *experiments.Result) func(experiments.Options) []*experiments.Result {
	return func(o experiments.Options) []*experiments.Result {
		return []*experiments.Result{fn(o)}
	}
}

// runners maps a lower-cased -fig value to its generator.
var runners = map[string]func(experiments.Options) []*experiments.Result{
	"all":        experiments.All,
	"4":          one(experiments.Fig04),
	"fig04":      one(experiments.Fig04),
	"6":          one(experiments.Fig06),
	"fig06":      one(experiments.Fig06),
	"7":          one(experiments.Fig07),
	"fig07":      one(experiments.Fig07),
	"8":          one(experiments.Fig08),
	"fig08":      one(experiments.Fig08),
	"9":          one(experiments.Fig09),
	"fig09":      one(experiments.Fig09),
	"10":         one(experiments.Fig10),
	"fig10":      one(experiments.Fig10),
	"11":         one(experiments.Fig11),
	"fig11":      one(experiments.Fig11),
	"13":         one(experiments.Fig13),
	"fig13":      one(experiments.Fig13),
	"headline":   one(experiments.Headline),
	"appa":       one(experiments.AppA),
	"appd":       one(experiments.AppD),
	"ablations":  experiments.Ablations,
	"retry":      one(experiments.AblationRetryPolicy),
	"abl-retry":  one(experiments.AblationRetryPolicy),
	"chaosavail": one(experiments.ChaosAvail),
}

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
	fig := fs.String("fig", "all", "figure to regenerate (4,6,7,8,9,10,11,13,headline,appA,appD,ablations,chaosavail,all)")
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
	os.Exit(run(o))
}

// run executes a validated command line and returns the exit status.
// It returns rather than exits so the deferred profile writers always
// run and a failed run still leaves a complete profile.
func run(o *options) int {
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
		fmt.Printf("wrote observability export to %s\n", o.obsPath)
		return 0
	}
	for _, r := range o.figures(o.exp) {
		fmt.Println(r)
		if o.csvDir != "" {
			if err := writeCSVs(o.csvDir, r); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
				return 1
			}
		}
	}
	return 0
}

func writeCSVs(dir string, r *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, rows := range r.CSV {
		var b strings.Builder
		for _, rec := range rows {
			b.WriteString(strings.Join(rec, ","))
			b.WriteByte('\n')
		}
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", r.ID, name))
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", path)
	}
	return nil
}
