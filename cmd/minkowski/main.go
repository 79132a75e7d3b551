// Command minkowski runs one full TS-SDN scenario and narrates it:
// fleet status, topology evolution, availability, and the intent/
// command activity of the controller.
//
// Usage:
//
//	minkowski -hours 24 -balloons 20 -seed 1 -report 1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"minkowski"
)

type options struct {
	scenario           minkowski.Scenario
	hours, reportEvery float64
}

// parseArgs parses and validates the command line. Every problem is
// reported on errOut as one line (the flag package adds its usage text
// to its own) and returned, so main exits before building a scenario.
func parseArgs(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("minkowski", flag.ContinueOnError)
	fs.SetOutput(errOut)
	hours := fs.Float64("hours", 12, "simulated hours to run")
	balloons := fs.Int("balloons", 20, "fleet size")
	seed := fs.Int64("seed", 1, "simulation seed")
	reportEvery := fs.Float64("report", 2, "hours between status reports")
	noPower := fs.Bool("nopower", false, "disable the diurnal power cycle")
	predictive := fs.Float64("lead", 180, "predictive lead seconds (0 = reactive)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q (minkowski takes flags only)", fs.Arg(0))
	case !(*hours > 0):
		err = fmt.Errorf("-hours must be positive, got %v", *hours)
	case !(*reportEvery > 0):
		err = fmt.Errorf("-report must be positive, got %v", *reportEvery)
	case *balloons < 1:
		err = fmt.Errorf("-balloons must be at least 1, got %d", *balloons)
	case !(*predictive >= 0):
		err = fmt.Errorf("-lead must not be negative, got %v", *predictive)
	}
	if err != nil {
		fmt.Fprintf(errOut, "minkowski: %v\n", err)
		return nil, err
	}
	s := minkowski.DefaultScenario()
	s.Seed = *seed
	s.FleetSize = *balloons
	s.DisablePower = *noPower
	s.PredictiveLeadS = *predictive
	return &options{scenario: s, hours: *hours, reportEvery: *reportEvery}, nil
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	s := o.scenario
	sim := minkowski.NewSimulation(s)

	fmt.Printf("minkowski: %d balloons, %d ground stations, seed %d, %s mode\n",
		s.FleetSize, len(s.GroundStations), s.Seed,
		map[bool]string{true: "predictive", false: "reactive"}[s.PredictiveLeadS > 0])
	for elapsed := 0.0; elapsed < o.hours; {
		step := o.reportEvery
		if elapsed+step > o.hours {
			step = o.hours - elapsed
		}
		sim.RunHours(step)
		elapsed += step
		fmt.Println("----")
		fmt.Print(sim.Summary())
	}
	fmt.Println("====")
	link, ctrl, data := sim.Availability()
	fmt.Printf("final availability: link=%.3f control=%.3f data=%.3f\n", link, ctrl, data)
	b2g, b2b := sim.LinkLifetimes()
	fmt.Printf("link lifetimes: B2G %s | B2B %s\n", b2g.Summary(), b2b.Summary())
	w, f, imp := sim.RecoveryStats()
	fmt.Printf("recoveries: withdrawn %s | failed %s | improvement %.1f%%\n",
		w.Summary(), f.Summary(), 100*imp)
}
