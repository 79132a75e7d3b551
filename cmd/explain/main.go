// Command explain runs a scenario and demonstrates the §6
// explainability tooling: the filtered change-log, the time scrubber,
// and why-not queries against the live plan.
//
// Usage:
//
//	explain -hours 3 -at 5400 -kind link-state -subject hbal-001
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"minkowski"
	"minkowski/internal/explain"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
}

// options is a parsed command line.
type options struct {
	hours, at     float64
	seed          int64
	kind, subject string
	limit         int
	whyA, whyB    string
}

// parseArgs parses and validates the command line. Every problem is
// reported on errOut as one line (the flag package adds its usage text
// to its own) and returned, so run stops before the scenario runs.
func parseArgs(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	fs.SetOutput(errOut)
	kinds := explain.Kinds()
	var o options
	fs.Float64Var(&o.hours, "hours", 3, "simulated hours to run")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.Float64Var(&o.at, "at", 0, "scrub to this sim time (seconds; 0 = end)")
	fs.StringVar(&o.kind, "kind", "", "filter events by kind ("+strings.Join(kinds, ", ")+")")
	fs.StringVar(&o.subject, "subject", "", "filter events by subject substring")
	fs.IntVar(&o.limit, "limit", 30, "max events to print")
	fs.StringVar(&o.whyA, "whynot-a", "", "transceiver A for a why-not query (node/xcvr-i)")
	fs.StringVar(&o.whyB, "whynot-b", "", "transceiver B for a why-not query")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q (explain takes flags only)", fs.Arg(0))
	case o.kind != "" && !slices.Contains(kinds, o.kind):
		err = fmt.Errorf("-kind %q is not one of %s", o.kind, strings.Join(kinds, ", "))
	case o.limit < 0:
		err = fmt.Errorf("-limit must be at least 0, got %d", o.limit)
	}
	if err != nil {
		fmt.Fprintf(errOut, "explain: %v\n", err)
		return nil, err
	}
	return &o, nil
}

// run parses args, runs the scenario and prints the scrubbed state,
// the change-log and the optional why-not answer on stdout. The only
// errors are command-line errors, already reported on stderr.
func run(args []string, stdout io.Writer) error {
	o, err := parseArgs(args, os.Stderr)
	if err != nil {
		return err
	}

	s := minkowski.DefaultScenario()
	s.Seed = o.seed
	s.FleetSize = 10
	s.DisablePower = true
	sim := minkowski.NewSimulation(s)
	sim.RunHours(o.hours)

	scrubAt := o.at
	if scrubAt == 0 {
		scrubAt = sim.Now()
	}
	// 1. State at the scrub point.
	if st, ok := sim.StateAt(scrubAt); ok {
		printState(stdout, scrubAt, st)
	} else {
		fmt.Fprintln(stdout, "no snapshot recorded yet")
	}
	// 2. Change-log.
	f := explain.Filter{Kind: o.kind, Subject: o.subject, To: scrubAt}
	events := sim.Events(f)
	fmt.Fprintf(stdout, "\n== change log (%d matching events, last %d) ==\n", len(events), o.limit)
	for _, e := range events[max(0, len(events)-o.limit):] {
		fmt.Fprintln(stdout, e)
	}
	// 3. Why-not.
	if o.whyA != "" && o.whyB != "" {
		fmt.Fprintf(stdout, "\n== why not %s <-> %s ==\n%s\n", o.whyA, o.whyB, sim.WhyNot(o.whyA, o.whyB))
	}
	return nil
}

// printState renders a scrubbed state: installed links in link-ID
// order, routes by request ID.
func printState(w io.Writer, scrubAt float64, st explain.State) {
	fmt.Fprintf(w, "== state at t=%.0fs (snapshot t=%.0fs, plan value %.0f) ==\n", scrubAt, st.At, st.Value)
	fmt.Fprintf(w, "installed links (%d):\n", len(st.Links))
	for _, l := range st.Links {
		fmt.Fprintf(w, "  %s [%s]\n", l.ID, l.Intent)
	}
	fmt.Fprintf(w, "routes (%d):\n", len(st.Routes))
	for _, r := range st.Routes {
		fmt.Fprintf(w, "  %s: %v\n", r.ID, r.Path)
	}
}
